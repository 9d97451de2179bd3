"""Golden outputs: stdout bytes and exit codes of fixed CLI runs.

The digests are sha256 of everything `orbitgcd.cli.main` writes to
stdout.  A refactor must keep them; a change that alters output on
purpose re-records them and says why.
"""

import hashlib

import pytest

from orbitgcd.cli import main

GOLDEN = {
    ("backnonfin", "csv", 0): "654a3c9d560f5071143eb529c462cafc97838e87899447478b51c5c6500ffcd5",
    ("backnonfin", "csv", 1): "654a3c9d560f5071143eb529c462cafc97838e87899447478b51c5c6500ffcd5",
    ("backnonfin", "json", 0): "0c9fb625a4b63de774eb1a224ff817a77fa52f80ea35f704ae34bf7b7ce70449",
    ("backnonfin", "json", 1): "d69436290ca7b2087953fd524f74478ce246f25731e706953881bb263cb3daa9",
    ("a2", "csv", 0): "87901f5ec5ec8d92f3ce7a656c2c506f2d7b2e6d5ae3ab8c5cf0736845f927fe",
    ("a2", "csv", 1): "87901f5ec5ec8d92f3ce7a656c2c506f2d7b2e6d5ae3ab8c5cf0736845f927fe",
    ("a2", "json", 0): "ca91e5c3a4abb3ecb6155f15d9603f833f5812758cb51f47454edfe6715c07e9",
    ("a2", "json", 1): "1efe0ff17486c4977157792aeac8145e3e121bc8a7bae7c427fbea287d96a926",
    ("bcz", "csv", 0): "1273dab5c6227510c7cac63a8698d164acb03dbe84a940132c4e14ce77b0c9dd",
    ("bcz", "csv", 1): "1273dab5c6227510c7cac63a8698d164acb03dbe84a940132c4e14ce77b0c9dd",
    ("bcz", "json", 0): "cadbf139836fe3ffc6de2c065ccddd1813328a00f8289b3d7222a2cb555e2a8d",
    ("bcz", "json", 1): "816df30d861480f3fffe19931011c8832477c8590b03f2e22ec7018c16260c63",
    ("diag", "csv", 0): "1273dab5c6227510c7cac63a8698d164acb03dbe84a940132c4e14ce77b0c9dd",
    ("diag", "csv", 1): "1273dab5c6227510c7cac63a8698d164acb03dbe84a940132c4e14ce77b0c9dd",
    ("diag", "json", 0): "d97a565c1b353086b17ef25ede7389fddf51c7951e91bf9894ef4f56d3151cbe",
    ("diag", "json", 1): "6b34cf8fb1a856d06b3c34fc402ff85714e088b44409e34fdc20004305dfeed3",
}

DEGREES_ARGV = ["degrees", "--map", "x0^2*x1; x1^3; x2^3",
                "--primes", "1009,2003", "--targets", "10", "--seed", "0"]
DEGREES_DIGEST = "bb4664d530724a9dc880b38722de92c03e9d1f2071eea5893e7bd585b4f795ae"

# every component has all six quadratic monomials, so each iterate is
# composed from dense products
DENSE_ARGV = ["degrees", "--n-max", "3", "--map",
              "7*x0^2 + 7*x0*x1 - 5*x0*x2 + x1^2 - 5*x1*x2 - 2*x2^2; "
              "-9*x0^2 + 7*x0*x1 - 5*x0*x2 - x1^2 + 4*x1*x2 + 7*x2^2; "
              "-x0^2 + x0*x1 + 7*x0*x2 - 9*x1^2 + 4*x1*x2 + 4*x2^2"]
DENSE_DIGEST = "c7413c5a1a33022841ba0b2549fc9b9d192b3baccd4edd82c39f3a90a975deb7"


def _stdout_digest(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("scenario,fmt,seed", sorted(GOLDEN),
                         ids=["-".join(map(str, k)) for k in sorted(GOLDEN)])
def test_builtin_run_output_is_pinned(capsys, scenario, fmt, seed):
    argv = ["run", "--scenario", scenario, "--format", fmt, "--seed", str(seed)]
    assert _stdout_digest(capsys, argv) == (0, GOLDEN[scenario, fmt, seed])


def test_degrees_output_is_pinned(capsys):
    assert _stdout_digest(capsys, DEGREES_ARGV) == (0, DEGREES_DIGEST)


def test_dense_degrees_output_is_pinned(capsys):
    assert _stdout_digest(capsys, DENSE_ARGV) == (0, DENSE_DIGEST)
