"""Expression parsing, subcommand output, exit codes, and determinism."""

import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from dicritical import atinfinity, cli, idealcalc, zariski
from dicritical.arith import QQ
from dicritical.errors import DivisionNotTopLevel, ParseError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- parsing


def test_parse_precedence():
    f = cli.parse_polynomial("x + 2*y^3", QQ, ("x", "y"))
    assert f.render() == "2*y^3 + x"
    g = cli.parse_polynomial("-x^2*(y + 1)", QQ, ("x", "y"))
    assert g.render() == "-x^2*y - x^2"


def test_parse_unary_minus_and_constants():
    f = cli.parse_polynomial("-3 + x - -y", QQ, ("x", "y"))
    assert f.render() == "x + y - 3"
    # a chain of unary minuses is read in a loop, not one frame per minus
    assert cli.parse_polynomial("-" * 1000 + "x", QQ, ("x", "y")).render() == "x"
    assert cli.parse_polynomial("y*" + "-" * 1001 + "x", QQ, ("x", "y")).render() == "-x*y"


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        cli.parse_polynomial("x + * y", QQ, ("x", "y"))
    assert "position" in str(exc.value)


def test_parse_unknown_variable():
    with pytest.raises(ParseError):
        cli.parse_polynomial("x + t", QQ, ("x", "y"))


def test_division_only_top_level():
    r = cli.parse_rational("y^2 / x^3", QQ, ("x", "y"))
    assert r.num.render() == "y^2" and r.den.render() == "x^3"
    # '/' binds loosest: everything left of it is the numerator
    r = cli.parse_rational("1 + y / x", QQ, ("x", "y"))
    assert r.num.render() == "y + 1" and r.den.render() == "x"
    with pytest.raises(DivisionNotTopLevel):
        cli.parse_polynomial("y/x", QQ, ("x", "y"))
    with pytest.raises(DivisionNotTopLevel):
        cli.parse_rational("(y/x)/x", QQ, ("x", "y"))
    with pytest.raises(DivisionNotTopLevel):
        cli.parse_rational("y/x/x", QQ, ("x", "y"))


def test_parse_ideal_commas():
    gens = cli.parse_ideal("x^3, y^2", QQ, ("x", "y"))
    assert [g.render() for g in gens.gens] == ["x^3", "y^2"]


# ------------------------------------------------------------- subcommands


def test_dicriticals_text(capsys):
    code, out, err = run(capsys, "dicriticals", "y^2/x^3")
    assert code == 0 and err == ""
    assert out == "divisor [aff(0) inf] index=1 values x:2 y:3 degree=1\n"


def test_ideal_dicriticals_text(capsys):
    code, out, _ = run(capsys, "ideal-dicriticals", "x^3, x^2*y, y^7")
    assert code == 0
    assert out.splitlines() == [
        "divisor [] index=1 values x:1 y:1",
        "divisor [inf inf] index=2 values x:3 y:1",
    ]


def test_basepoints_text(capsys):
    code, out, _ = run(capsys, "basepoints", "x^3, x^2*y, y^7")
    assert code == 0
    assert out.splitlines() == [
        "principal 1",
        "node [] zariski=1 transform (x^3, x^2*y, y^7)",
        "node [inf] zariski=0 transform (x^3, x^2, y^4)",
        "node [inf inf] zariski=2 transform (x^3*y, x^2, y^2)",
    ]


def test_zariski_factor_text(capsys):
    code, out, _ = run(capsys, "zariski-factor", "x^3, y^2")
    assert code == 0
    assert out.splitlines() == [
        "principal 1",
        "simple [aff(0) inf] exponent=1",
    ]


def test_colength_text(capsys):
    code, out, _ = run(capsys, "colength", "x^3, y^2")
    assert code == 0 and out == "colength 6\n"


def test_colength_drops_a_zero_generator(capsys):
    code, out, _ = run(capsys, "colength", "0, x^2, y^3")
    assert code == 0 and out == "colength 6\n"


def test_closure_member_text(capsys):
    code, out, _ = run(capsys, "closure-member", "x^2*y", "x^3, y^2")
    assert code == 0 and out == "decision true\n"
    code, out, _ = run(capsys, "closure-member", "x^2", "x^3, y^2")
    assert code == 0 and out == "decision false\n"


def test_closure_equals_text(capsys):
    code, out, _ = run(capsys, "closure-equals", "x^3, y^2", "x^3, y^2, x^2*y")
    assert code == 0 and out == "decision true\n"
    code, out, _ = run(capsys, "closure-equals", "x^3, y^2", "x^3, y^2")
    assert code == 0 and out == "decision false\n"


def test_reduction_check_text(capsys):
    code, out, _ = run(capsys, "reduction-check", "x^3, y^2", "x^3, y^2, x^2*y")
    assert code == 0
    assert out.splitlines() == ["decision true", "witness 1"]


def test_reduction_check_false(capsys):
    code, out, _ = run(
        capsys, "reduction-check", "x^3, y^5", "x^3, y^5, x*y^2", "--nmax", "3"
    )
    assert code == 0
    assert out.splitlines() == ["decision false"]


def test_special_pencil_text(capsys):
    code, out, _ = run(capsys, "special-pencil", "y^2/x^3")
    assert code == 0
    assert out.splitlines() == ["decision true", "witness 3"]


def test_special_pencil_small_characteristic(capsys):
    # x + y^2 is separable over F_7 although 7 is below the total degree 10
    code, out, _ = run(
        capsys, "special-pencil", "1/(x+y^2)^5", "--field", "Fp:7", "--format", "machine"
    )
    data = json.loads(out)
    assert code == 0 and data["decision"] is True and data["witness"] == 5
    # (x + y)^7 = x^7 + y^7 over F_7: the squarefree part is a 7th root
    code, out, _ = run(capsys, "special-pencil", "1/(x+y)^7", "--field", "Fp:7")
    assert code == 0 and out.splitlines() == ["decision true", "witness 7"]
    code, out, _ = run(capsys, "special-pencil", "1/(x^2-y^2)^7", "--field", "Fp:7")
    assert code == 0 and out.splitlines() == ["decision false"]


def test_rees_certificate_text(capsys):
    code, out, _ = run(capsys, "rees-certificate", "x^3, y^2")
    assert code == 0
    assert out.splitlines() == [
        "decision true",
        "divisor [aff(0) inf] index=1 values x:2 y:3",
    ]


def test_simple_ideal_roundtrip(capsys):
    path = json.dumps(
        [
            {"c": "0", "chart": "affine", "extension": None},
            {"c": None, "chart": "infinity", "extension": None},
        ]
    )
    code, out, _ = run(capsys, "simple-ideal", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "values x:2 y:3"
    assert lines[1] == "generators (y^2, x^2*y, x^3)"


EXTENSION_PATH = '[{"chart":"affine","c":null,"extension":{"name":"%s","minpoly":["1","0","1"]}}]'


@pytest.mark.parametrize("field", ["Q", "Fp:7"])
def test_simple_ideal_extension_name(capsys, field):
    # the round trip names the residue extension itself; the user's name for
    # the same generator must give the same ideal
    outputs = []
    for name in ("b", "a1"):
        code, out, err = run(capsys, "simple-ideal", EXTENSION_PATH % name, "--field", field)
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1] == "values x:1 y:1\ngenerators (x^2 + y^2, y^3, x*y^2)\n"


def _alternating_path(steps):
    return json.dumps(
        [{"chart": "infinity", "c": None, "extension": None}, {"chart": "affine", "c": "0", "extension": None}]
        * (steps // 2)
    )


RATIONAL_PATH = (
    '[{"chart":"affine","c":"1","extension":null},{"chart":"infinity","c":null,"extension":null},'
    '{"chart":"affine","c":"-1","extension":null}]'
)
# requests with the sha256 of their machine output; the at-infinity digests
# are those of the output when sympy factored over Q, and the simple-ideal
# digests after the first are those of the row-echelon kernel: a path with
# c != 0 over Q and F_7, and the 10-step path alternating infinity and aff(0)
SYMPY_FREE_REQUESTS = [
    (["at-infinity", "(X^2+Y^2)^3+X", "--field", "Q"], "b09e4abc853e5185ca2df9fc3a348f37bf7ec76686fd44baf22c83f52def02d5"),
    # one of the benchmark's CLI batch
    (
        ["at-infinity", "6*X^4 - 3*X^3*Y - 2*X^2*Y^2 + X*Y^3 - 2*X^2*Y + Y^2 - 3*X", "--field", "Q"],
        "c6cefbe859b7737c9f08441e09192dc7f7209bf7523213d0838528332e9edce8",
    ),
    (["simple-ideal", EXTENSION_PATH % "b", "--field", "Q"], "49e4468bffe9616f70c42e29ec7a3f9538e396701b51dbb73cb910b7a44e501f"),
    (["simple-ideal", RATIONAL_PATH, "--field", "Q"], "455411b6305c084568e3e0fd89f490c2c5cf371f2ee3fae2d4a6174bc7e5d08c"),
    (["simple-ideal", RATIONAL_PATH, "--field", "Fp:7"], "1f1feafb16bff76654d31ee19708ee9a678449785370dab52135b56398d6ebdd"),
    (["simple-ideal", _alternating_path(10), "--field", "Q"], "d1edf0a107dc7abdc73b351055d0c3c49f0725e451def9b0579f06b7f4dcba0d"),
]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # measured against the modules loaded before the import, whatever site preloads
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import dicritical.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize(
    "argv,digest",
    SYMPY_FREE_REQUESTS,
    ids=["at-infinity", "batch", "simple-ideal", "simple-ideal-Q", "simple-ideal-Fp7", "simple-ideal-alternating"],
)
def test_engine_runs_without_sympy(capsys, argv, digest):
    script = (
        "import sys\n"
        "sys.modules['sympy'] = None  # every import of sympy now fails\n"
        "from dicritical import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    argv = argv + ["--format", "machine"]
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True)
    assert proc.returncode == 0, proc.stderr.decode()
    code, out, _ = run(capsys, *argv)
    assert code == 0 and proc.stdout == out.encode()
    assert hashlib.sha256(proc.stdout).hexdigest() == digest, out


SOME_PATH = (
    '[{"chart":"affine","c":"2","extension":null},{"chart":"infinity","c":null,"extension":null},'
    '{"chart":"affine","c":"1","extension":null}]'
)
# one request per subcommand with the sha256 of its text and machine output
SUBCOMMAND_REQUESTS = [
    (
        ["dicriticals", "(y^2 - x^3)/(x^2*y + x^5)"],
        "f17233fbe2bc8954d7ce0b3a3c2b3ab2bf4dc0e3bf5139182a8a63853c002a8a",
        "f8a7c32ed26118620d8e49b0c71205a60b5927de17368f9597104a6e47f88e88",
    ),
    (
        ["ideal-dicriticals", "x^3, x^2*y, y^7", "--field", "Fp:5"],
        "34b1a44df8240fa4ac51a57f12bfcce4c4794af1491eaadc18ead7ee789e3dc6",
        "c88b7f75a8b1bbcc5baaac0f61767bc4196e44084ee65ef4e63c4c117ced9980",
    ),
    (
        ["basepoints", "x^4 - y^3, x*y^3"],
        "138807159c0658232ad3d79ebf6ba7fe79710c253609e22af7b838e75d432b66",
        "a1d350862744b2cdd8ae4fa1f64326c3c0387c015f4ee91706397ff868af262f",
    ),
    (
        ["zariski-factor", "x^5, x^3*y, y^4 + x^2*y^2"],
        "debc3de91a67f00f133202301713a44f632c3bbdcda3d29f66d487ff428808ee",
        "e08c8ce83ada68608f88edf93aad2a6d5e4bb2196a8bb3b47352a6644b3fa15b",
    ),
    (
        ["closure-member", "x^2*y + y^3", "x^3, y^2 + x*y^2"],
        "7ee3af018b94056c36f62c29e9758b308846becc805f07caa8fd9db7143e698f",
        "bca7200e0451786dd44b55c0ad79401eb3b5c06b4da2862c12cf3197b2671e9c",
    ),
    (
        ["closure-equals", "x^4, y^3", "x^4, y^3, x^2*y^2", "--field", "Fp:7"],
        "f1351d689ae0542c587d5e04a066b972783798c92cfdc2517add0e4276e3de6e",
        "1f0bb9b66fff690a7c45afd2a9b07b2da7a9cc765fa4d075099788c5b1cca2d5",
    ),
    (
        ["colength", "x^3 + y^4, x*y^2"],
        "5d84edcb70454614703a4fbd41aa7ea5ccc24742377a15f8e8216a8d4c56b414",
        "b2049dbb2adb88ad1be0802ed7bb983b2d467ca5854e18345dc6d2271bc51f2e",
    ),
    (
        ["reduction-check", "x^3, y^2", "x^3, y^2, x^2*y", "--nmax", "4"],
        "5b5874cc344f2177d0a0b441d728be4f25007723e706888791bf248c6bce2f77",
        "83b75271c61e15be542c9fa72fa75c33072e48effb00ed7bfc80b6b0e01dc701",
    ),
    (
        ["special-pencil", "(y^2 + x^3)/x^4"],
        "ae9831653b5e3d497f8349c9ac0c0b296f35cd0aed2be9d62c7987df7063cb33",
        "1f6f74ff3115249ce760adede2cecd097d4b5f1a491d6b5e03a3151e76577c9b",
    ),
    (
        ["rees-certificate", "x^3 + y^2, x*y^2"],
        "3bcb1a4da953ee3e284307695347f16644d99dc180961ca71f3cb09847721276",
        "4502cbc32f2e3f0c2a1a5ddea158219a2ff10fd323dc3fd0f77d50e27c085f06",
    ),
    (
        ["simple-ideal", SOME_PATH, "--field", "Fp:5"],
        "5515e9ea3e06da86ccafe99a87a88d660740e43aabd30f032e3a3c203dfaacf1",
        "4e014713fabb2adb7f1b9bdc24430cb967e16d2e3f29f282d78668cda2291b4a",
    ),
    (
        ["at-infinity", "X^3*Y - Y^2 + X", "--field", "Fp:7"],
        "1bbab866b18c756ee634cb02ed2049102572d19b3fc4a00e96a5c74f8c376e84",
        "bf07a9e9204f92ba162497f2dbb35bb9df80aaf1dcd19ae945a7327d97305067",
    ),
    (
        ["abhyankar-family", "3", "--depth", "20"],
        "a7a473b0693d90cbb75aede9f386c853511ad4a27050eb2db05668aa3a78df11",
        "1c69d048642d046a5698a8ee1073929edaefd58c7ad64640568c76aeb1b5a378",
    ),
]


def test_every_subcommand_is_pinned():
    assert sorted(argv[0] for argv, _, _ in SUBCOMMAND_REQUESTS) == sorted(cli._COMMANDS)


@pytest.mark.parametrize(
    "argv,text_digest,machine_digest", SUBCOMMAND_REQUESTS, ids=[r[0][0] for r in SUBCOMMAND_REQUESTS]
)
def test_subcommand_output_digest(capsys, argv, text_digest, machine_digest):
    for fmt, digest in (("text", text_digest), ("machine", machine_digest)):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def test_at_infinity_text(capsys):
    code, out, _ = run(capsys, "at-infinity", "X^4*Y^4 - X")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "degree 8 degree-form X^4*Y^4"
    assert lines[1] == "point [1:0:0] chart (z, y) ideal (-z^7 + y^4, z^8)"
    assert lines[2].strip().startswith("divisor ")
    assert "values y:7 z:4 degree=1 global X:-4 Y:3" in lines[2]
    assert lines[3] == "point [0:1:0] chart (z, x) ideal (-z^7*x + x^4, z^8)"
    assert "index=4" in lines[4] and "global X:1 Y:-1" in lines[4]


def test_abhyankar_family_text(capsys):
    code, out, _ = run(capsys, "abhyankar-family", "2")
    assert code == 0
    assert out.splitlines() == [
        "F x*y",
        "G x^3 + y^2",
        "I (y^2, x*y, x^3)",
        "reduction true witness 1",
        "divisor [] index=1 values x:1 y:1",
        "divisor [aff(0)] index=1 values x:1 y:2",
    ]


def test_abhyankar_family_builds_one_tree(capsys, monkeypatch):
    # the records come off the tree of (F_m, G_m) that the valuative
    # reduction verdict built; at m = 1 the pencil (x, y) is monomial, its
    # closure record holds no tree, and the CLI builds the one tree itself
    built, real = [], zariski.base_point_tree

    def counted(*args):
        built.append(args[0])
        return real(*args)

    for module in (cli, idealcalc, zariski):
        monkeypatch.setattr(module, "base_point_tree", counted)
    for m, witness in (("4", 1), ("1", 0)):
        built.clear()
        code, out, _ = run(capsys, "abhyankar-family", m)
        assert code == 0 and "reduction true witness %d" % witness in out
        assert len(built) == 1 and len(built[0].gens) == 2
    assert out.splitlines()[-1] == "divisor [] index=1 values x:1 y:1"


# ---------------------------------------------------------- machine format


def test_machine_schema(capsys):
    code, out, _ = run(capsys, "dicriticals", "y^2/x^3", "--format", "machine")
    assert code == 0
    report = json.loads(out)
    assert sorted(report) == [
        "decision",
        "diagnostics",
        "factorization",
        "field",
        "records",
        "request",
        "witness",
    ]
    assert report["field"] == "Q"
    assert report["request"]["subcommand"] == "dicriticals"
    assert report["request"]["vars"] == ["x", "y"]
    (rec,) = report["records"]
    assert rec["index"] == 1 and rec["degree"] == 1
    assert rec["values"] == {"x": 2, "y": 3}
    assert rec["path"] == [
        {"c": "0", "chart": "affine", "extension": None},
        {"c": None, "chart": "infinity", "extension": None},
    ]


def test_machine_factorization(capsys):
    code, out, _ = run(capsys, "zariski-factor", "x^3, y^2", "--format", "machine")
    report = json.loads(out)
    assert report["factorization"]["principal"] == "1"
    (item,) = report["factorization"]["exponents"]
    assert item["exponent"] == 1


def test_machine_determinism(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "at-infinity", "X^4*Y^4 - X", "--format", "machine")
        assert code == 0
        outs.append(out.encode())
    assert outs[0] == outs[1]


# ----------------------------------------------------------- options, exits


def test_field_option(capsys):
    code, out, _ = run(capsys, "dicriticals", "y^2/x^3", "--field", "Fp:5")
    assert code == 0
    assert "values x:2 y:3" in out


def test_vars_option(capsys):
    code, out, _ = run(capsys, "colength", "u^3, v^2", "--vars", "u,v")
    assert code == 0 and out == "colength 6\n"


def test_exit_parse_error(capsys):
    code, _, err = run(capsys, "dicriticals", "y^2 +")
    assert code == 2 and err.startswith("error:")


def test_exit_division_misplaced(capsys):
    code, _, err = run(capsys, "dicriticals", "(1 + y/x)")
    assert code == 2 and "error" in err


def test_exit_zero_input(capsys):
    code, _, err = run(capsys, "dicriticals", "0/x")
    assert code == 3 and err.startswith("error:")


def test_exit_budget(capsys):
    code, _, err = run(capsys, "basepoints", "x^3, x^2*y, y^7", "--depth", "1")
    assert code == 5 and err.startswith("error:")


def _step(**fields):
    return json.dumps([dict({"chart": "affine"}, **fields)])


@pytest.mark.parametrize(
    "argv,code",
    [
        (["simple-ideal", _step(extension=None)], 2),
        (["simple-ideal", _step(c=None, extension={"name": "b"})], 2),
        (["simple-ideal", _step(c="1/0")], 2),
        (["simple-ideal", _step(c=[1, 2])], 2),
        (["simple-ideal", _step(c="x"), "--field", "Fp:7"], 2),
        (["simple-ideal", _step(c=None, extension={"name": "b", "minpoly": ["1", "1"]})], 2),
        # (t + 1)^2 over F_2
        (
            ["simple-ideal", _step(c=None, extension={"name": "b", "minpoly": ["1", "0", "1"]}),
             "--field", "Fp:2"],
            4,
        ),
        (["colength", "x^2, y", "--vars", "x,x"], 2),
        (["abhyankar-family", "0"], 2),
        (["rees-certificate", "x^2, y^3, x*y"], 2),
        (["colength", "x^2, x*y"], 3),
        (["reduction-check", "x^2, y^2", "x"], 3),
        (["basepoints", "x^2, y^2", "--depth", "-1"], 2),
        (["basepoints", "x^2, y^2", "--nodes", "-1"], 2),
        (["reduction-check", "x^3, y^2", "x^3, y^2, x^2*y", "--nmax", "-1"], 2),
        # nested too deeply for the parser or for json, and a JSON integer
        # of more digits than int() converts
        (["colength", "(" * 300 + "x" + ")" * 300 + ", y"], 2),
        (["simple-ideal", "[" * 100000], 2),
        (["simple-ideal", '[{"chart":"affine","c":%s,"extension":null}]' % ("7" * 5000)], 2),
        # only the integers and p/q that element_to_data writes
        (["simple-ideal", _step(c="1e5000")], 2),
        (["simple-ideal", _step(c="1e-99999999")], 2),
        # only ASCII digits
        (["colength", "x^\u00b2, y"], 2),
        (["colength", "x^\u0663, y"], 2),
        # an unclosed parenthesis, a named exponent and a leading '/'
        (["colength", "(x"], 2),
        (["colength", "x^y"], 2),
        (["dicriticals", "/x"], 2),
        # a path that is not JSON, not a list, not a list of objects, or
        # names no chart
        (["simple-ideal", "{"], 2),
        (["simple-ideal", "{}"], 2),
        (["simple-ideal", "[1]"], 2),
        (["simple-ideal", '[{"chart":"sideways"}]'], 2),
        (["abhyankar-family", "x"], 2),
        (["colength", "x^2, y", "--field", "R"], 2),
    ],
)
def test_bad_input_exits_with_engine_error(capsys, argv, code):
    # every bad input leaves through an error line and a stable exit code
    start = time.perf_counter()
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert err.startswith("error:") and "Traceback" not in err
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize(
    "c",
    ["[" * 900 + "1" + "]" * 900, '"%s"' % ("7" * 5000)],
    ids=["nested-900", "digits-5000"],
)
def test_malformed_step_message_is_bounded(capsys, c):
    # the refused step is quoted by its chart and a bounded prefix of its JSON
    argv = ["simple-ideal", '[{"chart":"affine","c":%s,"extension":null}]' % c]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed step 0, chart \"affine\": ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert len(err.encode()) < 200


def _extension_step(name, minpoly=("1", "0", "1")):
    return {"chart": "affine", "c": None, "extension": {"name": name, "minpoly": list(minpoly)}}


@pytest.mark.parametrize(
    "steps,vars",
    [
        ([_extension_step([[["q"]]])], "x,y"),
        ([_extension_step("b" * 5000)], "x,y"),
        ([_extension_step(7)], "x,y"),
        ([_extension_step("")], "x,y"),
        ([_extension_step("b c")], "x,y"),
        ([_extension_step("\u03b2")], "x,y"),
        ([_extension_step("x")], "x,y"),
        ([_extension_step("v")], "u,v"),
        # t^2 - 2 is irreducible over Q(b), but b names the first generator
        ([_extension_step("b"), _extension_step("b", ("-2", "0", "1"))], "x,y"),
    ],
    ids=["nested", "long", "number", "empty", "space", "non-ascii", "variable", "renamed-variable",
         "earlier-generator"],
)
def test_extension_name_must_be_a_fresh_short_identifier(capsys, steps, vars):
    # the name is written into every output path, so it must be one token
    # that no variable or other generator of the path already uses
    code, out, err = run(capsys, "simple-ideal", json.dumps(steps), "--vars", vars)
    assert (code, out) == (2, "")
    assert err.startswith("error: extension name ")
    assert err.count("\n") == 1 and len(err.encode()) < 200


def test_second_extension_with_a_fresh_name(capsys):
    steps = [_extension_step("b"), _extension_step("c", ("-2", "0", "1"))]
    code, out, err = run(capsys, "simple-ideal", json.dumps(steps), "--format", "machine")
    assert code == 0, err
    assert [s["extension"]["name"] for s in json.loads(out)["records"][0]["path"]] == ["b", "c"]


def test_abhyankar_family_budget_bounds_the_reduction_test(capsys, monkeypatch):
    # --nodes bounds the trees of the reduction test too: the power chase
    # stops at its first tree rather than running to the end
    frames = []
    real = idealcalc.TruncationFrame.__init__

    def counting(self, *args, **kwargs):
        frames.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(idealcalc.TruncationFrame, "__init__", counting)
    assert run(capsys, "abhyankar-family", "6")[0] == 0
    unbounded = len(frames)
    del frames[:]
    code, out, err = run(capsys, "abhyankar-family", "6", "--nodes", "1")
    assert (code, out) == (5, "") and "1 nodes" in err
    assert len(frames) < unbounded


def test_non_monic_minimal_polynomial(capsys):
    # 2*t^2 + 2 names the same point as t^2 + 1
    for minpoly in (["1", "0", "1"], ["2", "0", "2"]):
        code, out, err = run(capsys, "simple-ideal", _step(c=None, extension={"name": "b", "minpoly": minpoly}))
        assert code == 0, err
        assert out == "values x:1 y:1\ngenerators (x^2 + y^2, y^3, x*y^2)\n"


def test_reduction_check_monomial_j_builds_no_tree(capsys):
    # J's closure is read off its Newton polygon: (x^100, y) has a chain of
    # 100 base points, past the default depth 64 and any --depth
    for extra in ((), ("--depth", "1")):
        code, out, err = run(capsys, "reduction-check", "x^100, y", "x^100, y", *extra)
        assert (code, out) == (0, "decision true\nwitness 0\n"), err


def test_reduction_check_non_primary_j(capsys):
    code, out, _ = run(capsys, "reduction-check", "x", "x, y")
    assert (code, out) == (0, "decision false\n")


def test_exit_frame_budget_names_budget(capsys):
    # M-primary, but its first frame already exceeds the degree budget
    code, _, err = run(capsys, "colength", "x^100000, y")
    assert code == 5 and "MAX_FRAME_DEGREE" in err and "M-primary" not in err


@pytest.mark.parametrize(
    "text,budget",
    [
        ("(x+y)^3000, x^2, y^2", "MAX_FRAME_DEGREE"),
        ("x^600*y^600, x^2, y^2", "MAX_FRAME_DEGREE"),
        ("(x+y+1)^1000, x, y", "MAX_PARSE_PRODUCT"),
        ("((1+x)^40*(1+y)^40)*((1+x)^40*(1+y)^40), x, y", "MAX_PARSE_PRODUCT"),
    ],
)
def test_exit_parse_expansion_budget(capsys, text, budget):
    # refused before the power or product is expanded
    start = time.perf_counter()
    code, _, err = run(capsys, "colength", text)
    assert code == 5 and budget in err
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("steps", [16, 200])
def test_exit_simple_ideal_degree_budget(capsys, steps):
    # the degree bound grows like the Fibonacci numbers: 2584 at 16 steps,
    # about 7*10^41 at 200; refused before any column is built
    start = time.perf_counter()
    code, _, err = run(capsys, "simple-ideal", _alternating_path(steps))
    assert code == 5 and "MAX_FRAME_DEGREE" in err
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("m", ["\u0663", "1_0", " 2 ", ""], ids=["arabic-indic", "underscore", "spaces", "empty"])
def test_family_index_takes_ascii_digits_only(capsys, m):
    # int() also reads other decimal digits, underscores and surrounding
    # spaces, which the expression tokenizer refuses
    code, out, err = run(capsys, "abhyankar-family", m)
    assert (code, out) == (2, "")
    assert err.startswith("error: family index") and "Traceback" not in err


@pytest.mark.parametrize("fmt", [[], ["--format", "machine"]], ids=["text", "machine"])
def test_closed_stdout_exits_cleanly(fmt):
    # a reader that has gone before the output is written: exit 0, no traceback
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "dicritical.cli", "abhyankar-family", "2", *fmt],
                              stdout=write, stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize("m", ["33", "44"])
def test_exit_abhyankar_family_frame_budget(capsys, m):
    # below m = 45 the pencil fits, but from m = 33 on the colength of
    # J_m = (F_m, G_m) needs a frame of degree d(J_m) = m^2 past
    # MAX_FRAME_DEGREE: refused before any tree or frame is built
    start = time.perf_counter()
    code, _, err = run(capsys, "abhyankar-family", m)
    assert code == 5 and "length frame" in err and "MAX_FRAME_DEGREE = 1024" in err
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("m", ["45", "100000000000000000000"])
def test_exit_abhyankar_family_degree_budget(capsys, m):
    # deg G_m = m(m+1)/2 passes MAX_FRAME_DEGREE = 1024 from m = 45 on
    start = time.perf_counter()
    code, _, err = run(capsys, "abhyankar-family", m)
    assert code == 5 and "MAX_FRAME_DEGREE" in err
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize(
    "text",
    [
        "x + 3^3000000*y^2, y^3",
        "x + 3^30000000*y^2, y^3",
        "(2*x + 3^200*y)^600, x, y",
        "x + 3^40000*7^40000*y^2, y^3",
        "(x + 3^60000)*(y + 5^60000)*x, y^3",
        "x + 3^" + "9" * 4000 + "*y^2, y^3",
    ],
)
def test_exit_parse_coefficient_budget(capsys, text):
    # over Q, refused before the power or product is expanded
    start = time.perf_counter()
    code, _, err = run(capsys, "colength", text)
    assert code == 5 and "MAX_PARSE_COEFF_BITS" in err
    assert time.perf_counter() - start < 2


def test_parse_coefficients_within_budget(capsys):
    assert cli.parse_polynomial("3^100*x + y", QQ, ("x", "y")).render() == (
        "%d*x + y" % 3 ** 100
    )
    code, out, _ = run(capsys, "colength", "3^100*x + y, y^2")
    assert code == 0 and out.strip() == "colength 2"


def test_parse_coefficients_over_fp_unbudgeted(capsys):
    # F_p coefficients never grow, so no size budget applies
    start = time.perf_counter()
    code, out, _ = run(capsys, "colength", "x + 3^30000000*y^2, y^3", "--field", "Fp:7")
    assert code == 0 and out.strip() == "colength 3"
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize(
    "text,position",
    [
        ("x^" + "9" * 5000 + ", y", 2),
        ("x, " + "9" * 5000 + "*y", 3),
    ],
    ids=["exponent", "coefficient"],
)
def test_exit_long_integer_literal(capsys, text, position):
    # Python refuses to convert integer strings of more than 4300 digits
    code, _, err = run(capsys, "colength", text)
    assert code == 2 and "too long (at position %d)" % position in err


def test_exit_huge_degree_message(capsys):
    # the degree in the budget message would have more than 4300 digits
    code, _, err = run(capsys, "colength", "(x^2)^" + "9" * 4300 + ", y")
    assert code == 5 and "above 10^18" in err


def test_exit_internal_inconsistency(capsys, monkeypatch):
    real = idealcalc.closure_data

    def shifted_floors(ideal, config=None):
        data = real(ideal, config)
        floors = tuple((v, c + 1) for v, c in data.floors)
        return data._replace(floors=floors)

    monkeypatch.setattr(idealcalc, "closure_data", shifted_floors)
    # a monomial J reads its Newton polygon, with no floors to shift
    code, _, err = run(capsys, "reduction-check", "x^3 + y^2, x^3 - y^2", "x^3, y^2, x^2*y")
    assert code == 6 and "criteria disagree" in err
    monkeypatch.setattr(
        atinfinity, "special_pencil_test", lambda z: type("R", (), {"decision": False})
    )
    code, _, err = run(capsys, "at-infinity", "X^3 - Y^2")
    assert code == 6 and "not special" in err


def test_exit_bad_arity(capsys):
    code, _, err = run(capsys, "closure-member", "x^2")
    assert code == 2 and "argument" in err


TWO_EXPRESSIONS = {"closure-member", "closure-equals", "reduction-check"}


@pytest.mark.parametrize("subcommand", sorted(cli._COMMANDS))
def test_exit_one_expression_too_many(capsys, subcommand):
    arity = 2 if subcommand in TWO_EXPRESSIONS else 1
    code, out, err = run(capsys, subcommand, *["x"] * (arity + 1))
    assert (code, out) == (2, "")
    assert err == "error: %s takes %d expression argument(s), got %d\n" % (subcommand, arity, arity + 1)


def test_exit_bad_field(capsys):
    code, _, err = run(capsys, "colength", "x^3, y^2", "--field", "Fp:6")
    assert code == 2


def test_large_prime_field(capsys):
    code, out, _ = run(capsys, "dicriticals", "y^2/x^3", "--field", "Fp:2305843009213693951")
    assert code == 0 and out.startswith("divisor [aff(0) inf]")
    code, _, err = run(capsys, "colength", "x^3, y^2", "--field", "Fp:%d" % (2 ** 89 - 1))
    assert code == 2 and "proven primality range" in err
