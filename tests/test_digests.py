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
            "75a72e9ec5d2b554429c31abf12e2ba71750992d52b389ca3181f7400ea8d470",
        "cons_profile.dat":
            "e86373a78462a348f8c0613bab768c6d00a33423c26f73df3f73f83407542d5d",
        "cons_report.json":
            "8b6577a76ff7fe8991a9ccad67c43cc7c5431c5db72d22950d48f0f465b62ef6",
    }),
    "cubic_sweep": (0, {
        "cubic_sweep_eps0.2.json":
            "9e0b9b38ea3a64f5382548b3a90af91c9efeb542d1df0cb4783f9aa4638c2abc",
        "cubic_sweep_eps0.4.json":
            "911d50d459932ef925649a461bfa226c3ac3b4dc583f712472afb74cddafeb12",
        "cubic_sweep_report.json":
            "d5a9d56dbf588988a039b6e495a415b9a4bdeed79f27d1269b84dbe2b4427e18",
        "cubic_sweep_table.dat":
            "3e204962a812b11e0a4a673dff5726bf3aa28f0dfc87efeebd62e5ec64fc8b17",
    }),
    "freg_expr": (0, {
        "freg_expr.csv":
            "9ee8daa5207652d34d3b741ec6d7dd1351982fd4a865589e3d816abe042943e9",
        "freg_expr_profile.dat":
            "a3b1a0beb65aec5062f4822f6fa4ed69fbd13a164da4c22d8ca1335de2913183",
        "freg_expr_report.json":
            "c78cd0b62681e9803df8027efe205197fc5328f0a322ea5d4d11d56e6366a3e3",
    }),
    "freg_exp": (0, {
        "freg_exp.csv":
            "0d7de44b77ada56277dc7b3d55e71c0d50f72cd05ef6a12db580d63c05719063",
        "freg_exp_profile.dat":
            "8923a7893e482b4bab0010e1f32a8c9d019bbbc9116f41f9b0b4b4eb47caa472",
        "freg_exp_report.json":
            "e9c473736e12831fe60ec33d83efc20e569b3ab253377afea6e4a6911851b1ff",
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
            "f25b3009b7768d5da455e7727f94f30e7e4f47eb2eec5aa240c8d784dd69cec5",
        "plane_profile.dat":
            "aa4d8b5c07d6b37f0090a94c88b4a8e8d16546ba55ea2811fd0a249c646582e3",
        "plane_report.json":
            "d1144c7a77026b5f78fcece3cae9edb0a174e77b5ff9b562c2d2b67f28aef7c3",
    }),
    "pulse": (0, {
        "pulse.csv":
            "66fd39229d2627e11ef00d12eff242bcf6ee90526da6aa33faece5726a6d581e",
        "pulse_profile.dat":
            "56bd2ecc1525a458826231df6da03fa818d29c689a0bc8895f3aa398507f5c52",
        "pulse_report.json":
            "31077b23d3eccab3396e18b52ae4e5bcabfcf4a4312b6aff0303c732c9dd9759",
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
            "ebe1409bf8b652ac87ccd42ad30328a7d8947aa1263a48d0072a79bfc9fcaebc",
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
