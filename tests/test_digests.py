"""Byte identity of the result files on a fixed scenario set.

Each case runs in-process through ``cli.main``, and the exit status and
the sha256 of every file it writes are compared with the literals in
DIGESTS.  The set covers every mode, Riemann, piecewise and expression
data, the Burgers, cubic and expression fluxes, CSV and JSON output,
``verify``, a non-convergence sweep, a cubic Godunov sweep and two
``riemann`` runs.  Two ``flux_reg`` runs with an expression flux pin
the L1 time-Lipschitz constant sup|f'| of the flux modes.

The literals change only in a change that changes the algorithm or a
file format; such a change lists the old and the new values in
CHANGES.md.
"""

import hashlib

import pytest

from nlclaw.cli import main

SCENARIOS = {
    "shock": """
name = shock
mode = nn
initial = riemann 1 0
epsilon = 0.1
T = 0.3
dx = 0.01
domain = -1 1.5
stride = 5
""",
    "cons": """
name = cons
mode = conservative
initial = expression -0.5*tanh(x)
epsilon = 0.1
T = 0.3
dx = 0.02
domain = -2 2
stride = 5
""",
    "vreg_cubic": """
name = vreg_cubic
mode = velocity_reg
flux = cubic
initial = riemann 1.2 0.2
epsilon = 0.1
T = 0.3
dx = 0.01
domain = -1 2
stride = 6
output = json
""",
    "freg_expr": """
name = freg_expr
mode = flux_reg
flux = expression 0.5*x^2 + x ; x + 1
initial = piecewise -1,1 ; 0.8 ; 0.3 - 0.1*tanh(x) ; -0.5 ; C=0.1
epsilon = 0.1
T = 0.3
dx = 0.01
domain = -3 3
stride = 10
""",
    # sup|f'| on the data range is about 3.3 times sup|u0|, so the L1
    # time-Lipschitz constant must read f'
    "freg_exp": """
name = freg_exp
mode = flux_reg
flux = expression exp(x) ; exp(x)
initial = expression -0.5*tanh(x)
epsilon = 0.1
T = 0.3
dx = 0.02
domain = -3 3
""",
    "pulse": """
name = pulse
mode = euler
initial = expression 1 + 0.1*exp(-x^2)
velocity = 0.2*tanh(x)
epsilon = 0.1
T = 0.1
dx = 0.025
domain = -4 4
stride = 2
""",
    "plane": """
name = plane
mode = nn2d
initial = expression -tanh(x)
epsilon = 0.1
T = 0.05
dx = 0.05
domain = -2 2
domain_y = 0 0.2
""",
    "verify_vreg": """
name = verify_vreg
mode = velocity_reg
initial = expression 0.5 - 0.4*tanh(2*x)
epsilon = 0.1
T = 0.2
dx = 0.02
domain = -2 2
""",
    "rare_sweep": """
name = rare_sweep
mode = nn
initial = riemann -1 1
epsilon_list = 0.2 0.1
T = 0.5
dx = 0.05
domain = -2 2
expect = nonconvergence
""",
    "cubic_sweep": """
name = cubic_sweep
mode = velocity_reg
flux = cubic
initial = expression 0.5 - 0.25*tanh(x)
epsilon_list = 0.4 0.2
T = 0.3
dx = 0.05
domain = -2 2
output = json
""",
}

RIEMANN = ["--epsilon", "0.1", "--T", "0.5", "--dx", "0.005", "--stride", "10"]
COMMANDS = {
    "shock": ["run"],
    "cons": ["run"],
    "vreg_cubic": ["run"],
    "freg_expr": ["run"],
    "freg_exp": ["run"],
    "pulse": ["euler"],
    "plane": ["run"],
    "verify_vreg": ["verify"],
    "rare_sweep": ["sweep"],
    "cubic_sweep": ["sweep"],
    "riemann_nn": ["riemann", "--uL", "1", "--uR", "0", *RIEMANN],
    "riemann_freg_cubic": [
        "riemann", "--uL", "1.5", "--uR", "0.5", "--flux", "cubic",
        "--mode", "flux_reg", "--name", "freg", *RIEMANN,
    ],
}

DIGESTS = {
    "cons": (0, {
        "cons.csv":
            "bd753fdb33a6ac792808e0e522e44c8c43a233612662fa1ed5ff783aed1e8ce8",
        "cons_profile.dat":
            "978722194878b42435d329925ebfede03e927352251951721d8178f4b63a75dc",
        "cons_report.json":
            "d53358434775ff0fa3ff7ca894106cf36fb1912a8bdb554dcd8384a040fbdd77",
    }),
    "cubic_sweep": (0, {
        "cubic_sweep_eps0.2.json":
            "1dc2f9a062bbfec6d24934991ade69c66045cca73800a71f276d46a9967e26c8",
        "cubic_sweep_eps0.4.json":
            "d5db7669469ba07a311f26bfbd474649af111bf1fb1e881cc76088142195750a",
        "cubic_sweep_report.json":
            "371d58d97d95e689412bee19cea1d4edf3689bf82e57a8c018aed1f511702708",
        "cubic_sweep_table.dat":
            "b30858bb477bb618d1fdbd6dda121bb33c9da0838594cdc8daf36e45bf108816",
    }),
    "freg_expr": (0, {
        "freg_expr.csv":
            "b3080ba4560ece7cdcbeb5743d189b05041c268c1832f48e54b93480ac6b1838",
        "freg_expr_profile.dat":
            "f2078745da44a481d9510851d3f6930ecbacdf28cb4b904c4a39f6d11a7a94ac",
        "freg_expr_report.json":
            "4e859e00fd08e6d7b2901ab5703686ff303eae338bc96deca14eae47364f1e0c",
    }),
    "freg_exp": (0, {
        "freg_exp.csv":
            "4ff5f7bef73ba66f4990ab4dab218dff5d12ba3f9cb0304c96804c61b115139c",
        "freg_exp_profile.dat":
            "e917b9e5f5695c4ee38ad5e8d71de6d8b7023ac1df6e85936bea0f7d18d6b5af",
        "freg_exp_report.json":
            "9ef1d60ad74752f3ce2562430798be5bf13bbad57fa310a4cd47559a0f4bafcf",
    }),
    "plane": (0, {
        "plane.csv":
            "50801837f77a21d9f8947e500d65cff344c6c0dbe407c8a072a76e74ea03ed29",
        "plane_profile.dat":
            "e752d659879c26d5d3fbdfa461ec022b1c5376c066dd36de0ea0d9cf1baa0e8c",
        "plane_report.json":
            "38375b63d1a31cd64a827bc81c4cbe89968fb41493b3878f0d60159f9c969b63",
    }),
    "pulse": (0, {
        "pulse.csv":
            "1d1e28bc2aacf94203acebd0d9e846661f213ce21b92d045cb5b716b5bd0b031",
        "pulse_profile.dat":
            "c084f6c9eeba21147f0955e8bb77fc81f1e27c65f8d3e552afb698f825760c33",
        "pulse_report.json":
            "e70062ab4345af07c18e2d48f577485fed75ae67cdca0f80c4d2fdf9568e53d0",
    }),
    "rare_sweep": (0, {
        "rare_sweep_eps0.1.csv":
            "b3e30574b6b0a8db1f925d87b7ff78e6cee51190bb29bb2ec7d39f3b6cc24fdc",
        "rare_sweep_eps0.2.csv":
            "acbb0922634fa9b3a6b8d369b46204a6c2c5fd7bedab3187e19b1a11dce198d7",
        "rare_sweep_report.json":
            "e32831e464aebbfcea9bb9a8848d605641fb3c68927ed16d6319d68c2682f1d4",
        "rare_sweep_table.dat":
            "f54bf86cc4b75372e6d2a5f95d1e0f237f81c7c227eaef2b5274c02d72c4b31a",
    }),
    "riemann_freg_cubic": (0, {
        "freg.csv":
            "a1d181141ea1987c68f2c870d8683dbcec39126a7bc5196446d396888d7a6f6b",
        "freg_profile.dat":
            "e441574420d09e1bb7feab99308c95f79a8d576094e0c75c3ab6483caab28f42",
        "freg_report.json":
            "3e64d36be4597bf06504761176976a452980f56f126a047b647e7afd2c95961d",
    }),
    "riemann_nn": (0, {
        "riemann.csv":
            "01710a80da4c104b4c73e7741520e7f1d02a7d555fc780cdb1256c500ccee23b",
        "riemann_profile.dat":
            "899e3b186a1ea4d12a09b089f06bbe487de074ec138b86bf77a2e59215567f77",
        "riemann_report.json":
            "985e4b678f5c33df896733536be9b67e345e8ff32801b8c16025bd18cdf9400a",
    }),
    "shock": (2, {
        "shock.csv":
            "4a3998710b853cdc62062f2c872b9c32a0a056ea2b86ddd55b2a4afb294e885e",
        "shock_profile.dat":
            "34642a3e297dd4fa57af6ae9bafe386e058d4f791b1c032f42122b6db1ad3bf0",
        "shock_report.json":
            "ebf2cfe6459419976f6ff47f21a89420ff13e2b4cb67e7fc177b2865e4483029",
    }),
    "verify_vreg": (0, {
        "verify_vreg_report.json":
            "89d8309277afcebb1093e7b3023cc227e6c3c2fb1ef48a3908ef02b12253feaa",
    }),
    "vreg_cubic": (2, {
        "vreg_cubic.json":
            "91b4ca2c9a36a4a1afdb23fb94ad2e942866f2e10bad1eeeae03097512d23476",
        "vreg_cubic_profile.dat":
            "66b5298da62185167bbd60ffb74b8b29443548a1ba3d808756d10ca5adf3395f",
        "vreg_cubic_report.json":
            "aaf87153f0f6908e66165a6bf1861a0f210745fee6fc9c6489ded789e1e883af",
    }),
}


def run_case(case, tmp_path):
    """(exit status, {file name: sha256}) of one case run into tmp_path."""
    out = tmp_path / "out"
    argv = list(COMMANDS[case])
    if case in SCENARIOS:
        scn = tmp_path / f"{case}.scn"
        scn.write_text(SCENARIOS[case])
        argv.insert(1, str(scn))
    rc = main([*argv, "--outdir", str(out)])
    files = sorted(p for p in out.iterdir()) if out.exists() else []
    return rc, {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files
    }


@pytest.mark.parametrize("case", sorted(COMMANDS))
def test_result_files_keep_their_digests(case, tmp_path):
    assert run_case(case, tmp_path) == DIGESTS[case]
