"""Byte identity of the result files on a fixed scenario set.

Each case runs in-process through ``cli.main``, and the exit status and
the sha256 of every file it writes are compared with the literals in
DIGESTS.  The set covers every mode, Riemann, piecewise and expression
data, the Burgers, cubic and expression fluxes, CSV and JSON output,
``verify``, a non-convergence sweep, a cubic Godunov sweep and two
``riemann`` runs.  Two ``flux_reg`` runs with an expression flux pin
the L1 time-Lipschitz constant sup|f'| of the flux modes, and a fast
cubic ``flux_reg`` run sends a foot a whole cell past the grid's end.

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
    # the cubic flux at u = 2 moves the left-end feet dt S/dx = 1 cell a
    # step, twice nn's reach at cfl 0.5: the first node's foot leaves the
    # grid and the second's lands on its end node on every step
    "freg_fast": """
name = freg_fast
mode = flux_reg
flux = cubic
initial = riemann 2 0
epsilon = 0.1
T = 0.2
dx = 0.01
domain = -0.5 2.5
stride = 4
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
    "freg_fast": ["run"],
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
            "320f36824141b6982a2530c17e6e9e7a49d1908ff0966ec5c2dc3fcfbb5a87a6",
        "cubic_sweep_report.json":
            "4183110432fe6546e41024e7eb6b5724781811cac52b4a0de6b3066b5535edad",
        "cubic_sweep_table.dat":
            "758eb7111f4fff99f00ed87cb089d4736876bc0f189701568131fe9857d5627d",
    }),
    "freg_expr": (0, {
        "freg_expr.csv":
            "6c2ec5be212dd38948442bbb43280865e15af8f7a169e45527e788badd422761",
        "freg_expr_profile.dat":
            "93d33a613855ec326cd15b91cbbcb6432d2f75466baa7ab075860f00d9691cda",
        "freg_expr_report.json":
            "4e859e00fd08e6d7b2901ab5703686ff303eae338bc96deca14eae47364f1e0c",
    }),
    "freg_exp": (0, {
        "freg_exp.csv":
            "b65e7a4f7388bf97366c519f93b131ae3e2a5807c34710a377c65ed8b1cc6d1a",
        "freg_exp_profile.dat":
            "8149d726e282d4577da231237c1e08199f41963711d2c0f09ef8973a5b8f16ea",
        "freg_exp_report.json":
            "9ef1d60ad74752f3ce2562430798be5bf13bbad57fa310a4cd47559a0f4bafcf",
    }),
    "freg_fast": (0, {
        "freg_fast.csv":
            "bc372058ee8e8ccf031551f5ab130ff4c6213d2f546ee4a57888cd954ff4ae85",
        "freg_fast_profile.dat":
            "0dd584f1630567e778eb7058132becc9db7779261eb6ac86c4b66b48fec9394b",
        "freg_fast_report.json":
            "f1ae92a912fea22d4db34adcaa7bcfbad12264e4e91202e690855b18c8e46d70",
    }),
    "plane": (0, {
        "plane.csv":
            "ab166df25b9bf54ce4b7c3894838109e3824d42cf72fa4122aacb1f9eb40ae2e",
        "plane_profile.dat":
            "b1ae04d5c57f4cec4959f8043d51a18ca2af407d5c0f2e93ae33081cb290db0b",
        "plane_report.json":
            "45142089306777969e8700a16c43e88ee83b4e81b5efea7e292c140dee46c979",
    }),
    "pulse": (0, {
        "pulse.csv":
            "db65e37f8a6a684053b3f775e0b8e0fcfee23681542c71697a0a28b7104a8035",
        "pulse_profile.dat":
            "f5c43c63a8ee3eb538dd48a23d6728cf231257fbd509bcf6c9425158cf758f10",
        "pulse_report.json":
            "63c5de2842082cb0f13a35d6d2050beeb8e991b68c7ab674a3ed06a206748d05",
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
            "502d6afe624d46c0d9afe400287bcc24f751ad97eb584ce115c7874e00def66f",
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
