"""End-to-end tests of the projline command line tool."""

import hashlib
import json

import pytest

from helpers import MUTATIONS, mutate_doc, run_cli
from projline.candidate import AXIOM_NAMES


@pytest.fixture(scope="module")
def f5_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "f5.json"
    r = run_cli("gen", "--p", "5", "--out", str(path))
    assert r.returncode == 0
    return str(path)


# -- gen -------------------------------------------------------------------


def test_gen_stdout_is_deterministic_json():
    a = run_cli("gen", "--p", "5", binary=True)
    b = run_cli("gen", "--p", "5", binary=True)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.endswith(b"\n")
    doc = json.loads(a.stdout)
    assert doc["format"] == 1
    assert len(doc["objects"]) == 6
    keys = [(e[0], e[1]) for e in doc["compose"]]
    assert keys == sorted(keys)


def test_gen_file_matches_stdout(tmp_path, f5_path):
    stdout = run_cli("gen", "--p", "5", binary=True).stdout
    with open(f5_path, "rb") as fh:
        assert fh.read() == stdout


def test_gen_rejects_nonprime():
    r = run_cli("gen", "--p", "4")
    assert r.returncode == 2
    assert "prime" in r.stderr


def test_gen_size_cap(tmp_path):
    assert run_cli("gen", "--p", "17").returncode == 2
    assert run_cli("gen", "--p", "13", "--out", str(tmp_path / "a")).returncode == 0
    assert run_cli("gen", "--p", "17", "--cap", "17", "--out", str(tmp_path / "b")).returncode == 0


def test_argparse_errors_exit_2():
    assert run_cli("gen").returncode == 2  # missing --p
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("check").returncode == 2  # missing --in


# -- check -----------------------------------------------------------------


def test_check_passes_on_model_table(f5_path):
    r = run_cli("check", "--in", f5_path)
    assert r.returncode == 0
    for name in ("endpoints", "associativity") + AXIOM_NAMES:
        assert f"\n{name}: PASS" in r.stdout
    assert "FAIL" not in r.stdout
    assert r.stdout.endswith("axioms: PASS\n")


def test_check_json_schema(f5_path):
    r = run_cli("check", "--in", f5_path, "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert set(doc) == {"structure", "axioms"}
    assert doc["structure"]["passed"] is True
    assert doc["axioms"]["passed"] is True
    assert [c["name"] for c in doc["axioms"]["checks"]] == list(AXIOM_NAMES)


def test_check_axiom_subset_in_canonical_order(f5_path):
    r = run_cli("check", "--in", f5_path, "--axioms", "pappus,one", "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert [c["name"] for c in doc["axioms"]["checks"]] == ["one", "pappus"]


def test_check_rejects_unknown_axiom(f5_path):
    r = run_cli("check", "--in", f5_path, "--axioms", "one,zorn")
    assert r.returncode == 2
    assert "zorn" in r.stderr


def test_check_skips_axioms_when_structure_fails(tmp_path, f5_path):
    with open(f5_path) as fh:
        doc = json.load(fh)
    # retarget one composite so its endpoints no longer line up
    for entry in doc["compose"]:
        if entry[2] == "0:1#1" and entry[0] != entry[2]:
            entry[2] = "1:1#1"
            break
    else:
        pytest.fail("no suitable entry")
    path = tmp_path / "twisted.json"
    path.write_text(json.dumps(doc))
    text = run_cli("check", "--in", str(path))
    assert text.returncode == 1
    assert "axioms: skipped (structure failed)" in text.stdout
    js = json.loads(run_cli("check", "--in", str(path), "--format", "json").stdout)
    assert js["structure"]["passed"] is False
    assert js["axioms"] is None


def test_check_bytes_do_not_depend_on_jobs(f5_path):
    runs = [
        run_cli("check", "--in", f5_path, "--format", "json", "--jobs", str(j), binary=True)
        for j in (1, 2, 3)
    ]
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout == runs[2].stdout


def test_check_unreadable_or_malformed_input(tmp_path):
    assert run_cli("check", "--in", str(tmp_path / "absent.json")).returncode == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("check", "--in", str(bad)).returncode == 2
    tiny = tmp_path / "tiny.json"
    tiny.write_text(json.dumps({"format": 1, "objects": ["a", "b"], "scalars": {},
                                "identity": {}, "compose": []}))
    assert run_cli("check", "--in", str(tiny)).returncode == 2


@pytest.mark.parametrize(
    "breakage",
    [
        lambda d: d["objects"].__setitem__(0, ["0:1"]),
        lambda d: d["scalars"].__setitem__("0:1", [["1"], ["2"]]),
        lambda d: d["scalars"].__setitem__("0:1", 4),
        lambda d: d["scalars"].__setitem__("0:1", "1234"),
    ],
    ids=["object-as-list", "scalar-ids-as-lists", "scalars-as-number", "scalars-as-string"],
)
def test_check_rejects_wrong_json_types(tmp_path, f5_path, breakage):
    with open(f5_path) as fh:
        doc = json.load(fh)
    breakage(doc)
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    r = run_cli("check", "--in", str(path))
    assert r.returncode == 2
    assert r.stdout == ""
    assert str(path) in r.stderr and "internal error" not in r.stderr


# -- reconstruct and classify ------------------------------------------------


def test_reconstruct_model_field(f5_path):
    r = run_cli("reconstruct", "--in", f5_path, "--format", "json")
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["field"]["order"] == 5
    assert doc["field"]["zero"] == "0"
    assert doc["field"]["one"] == "1"
    assert doc["field"]["minus_one"] == "4"
    assert doc["report"]["passed"] is True
    text = run_cli("reconstruct", "--in", f5_path)
    assert text.returncode == 0
    assert "base object 0:1" in text.stdout
    assert "add:" in text.stdout and "mul:" in text.stdout
    assert text.stdout.endswith("field: PASS\n")


def test_reconstruct_base_flag(f5_path):
    r = run_cli("reconstruct", "--in", f5_path, "--base", "2:1")
    assert r.returncode == 0
    assert "base object 2:1" in r.stdout
    assert run_cli("reconstruct", "--in", f5_path, "--base", "9:9").returncode == 1


def test_reconstruct_json_deterministic(f5_path):
    a = run_cli("reconstruct", "--in", f5_path, "--format", "json", binary=True)
    b = run_cli("reconstruct", "--in", f5_path, "--format", "json", binary=True)
    assert a.stdout == b.stdout


def test_classify_model_table(f5_path):
    r = run_cli("classify", "--in", f5_path)
    assert r.returncode == 0
    assert r.stdout == (
        "order 5\ncharacteristic 5\nprime yes\nmap 0->0 1->1 2->2 3->3 4->4\n"
    )
    js = json.loads(run_cli("classify", "--in", f5_path, "--format", "json").stdout)
    assert js == {
        "order": 5,
        "characteristic": 5,
        "prime": True,
        "map": {"0": 0, "1": 1, "2": 2, "3": 3, "4": 4},
    }


@pytest.fixture(scope="module")
def f7_doc():
    r = run_cli("gen", "--p", "7")
    assert r.returncode == 0
    return json.loads(r.stdout)


@pytest.mark.parametrize(
    "entry, reason",
    [
        (("0:1#3", "0:1#5", "0:1#4"), "0:1#3 has no two-sided inverse"),
        (("0:1>2:1>3:1", "3:1>6:1>0:1", "0:1>1:0>6:1"), "gives 0:1>1:0>6:1, not a scalar"),
        (("0:1#2", "0:1#3", "0:1>1:0>6:1"), "0:1#2 then 0:1#3 gives 0:1>1:0>6:1"),
    ],
    ids=["no-inverse", "cycle-not-scalar", "product-not-scalar"],
)
def test_non_groupoid_table_fails_reconstruction_with_exit_1(tmp_path, f7_doc, entry, reason):
    doc = json.loads(json.dumps(f7_doc))
    first, second, replacement = entry
    hits = [e for e in doc["compose"] if e[0] == first and e[1] == second]
    assert len(hits) == 1
    hits[0][2] = replacement
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    for cmd, verb in (("reconstruct", "reconstruction"), ("classify", "classification")):
        r = run_cli(cmd, "--in", str(path))
        assert r.returncode == 1, r.stderr
        assert r.stderr.startswith(f"{verb} failed: ")
        assert reason in r.stderr


# -- byte stability -------------------------------------------------------------

# SHA-256 of stdout, recorded from the per-entry loader these outputs must
# not drift from.
STDOUT_SHA256 = {
    (5, "gen"): "24b512eb2191426c1969efcc507a4b8f7324a24b2d10d1f963eea99137c5de24",
    (5, "check"): "d08e964bad76f04dad2a85e3ea97c9471591aeb43ad141eb7e7eb0890a2d2cdd",
    (5, "reconstruct"): "4f6446f7f27d83711b0436fcfef77c34bbdc7b256263a2d816c79e9a7eeb2202",
    (5, "classify"): "43f88456d1e505de2e14472cab63e07b07952c68604ffe2f5c72e8794396fa45",
    (7, "gen"): "a03e8339ad5235dff55618f3665f8eafdf1dab41554526bca7eb4750e3a266a9",
    (7, "check"): "400e544e73c09e4e1eeb85009bc99222e074c4e40eac25ba413eb4affe0e6361",
    (7, "reconstruct"): "4b0b1d901d17e99632df3e9045a193d93777276fe26ecdea3e295f2616e59d12",
    (7, "classify"): "eaa97fe68d8c872b3b31d1bf3a718e60de2bfe0fc111ab0a6df92c977f4ea606",
}


@pytest.mark.parametrize("p", [5, 7])
def test_pipeline_stdout_bytes_are_pinned(tmp_path, p):
    path = tmp_path / f"f{p}.json"
    gen = run_cli("gen", "--p", str(p), binary=True)
    assert gen.returncode == 0
    path.write_bytes(gen.stdout)
    got = {"gen": hashlib.sha256(gen.stdout).hexdigest()}
    for cmd in ("check", "reconstruct", "classify"):
        r = run_cli(cmd, "--in", str(path), "--format", "json", binary=True)
        assert r.returncode == 0
        got[cmd] = hashlib.sha256(r.stdout).hexdigest()
    assert got == {cmd: h for (q, cmd), h in STDOUT_SHA256.items() if q == p}


# -- point calculators --------------------------------------------------------


def test_cr_over_prime_field():
    r = run_cli("cr", "--p", "5", "0:1", "1:0", "1:1", "2:1")
    assert r.returncode == 0
    assert r.stdout == "3\n"
    js = run_cli("cr", "--p", "5", "0:1", "1:0", "1:1", "2:1", "--format", "json")
    assert json.loads(js.stdout) == {"value": "3"}


def test_cr_over_rationals():
    r = run_cli("cr", "--field", "rationals", "--", "0:1", "1:0", "1:1", "-1/2:1")
    assert r.returncode == 0
    assert r.stdout == "-2\n"


def test_cr_requires_exactly_one_field_choice():
    common = ("0:1", "1:0", "1:1", "2:1")
    assert run_cli("cr", *common).returncode == 2
    assert run_cli("cr", "--p", "5", "--field", "rationals", *common).returncode == 2


def test_cr_rejects_degenerate_or_bad_points():
    assert run_cli("cr", "--p", "5", "0:1", "0:1", "1:1", "2:1").returncode == 2
    assert run_cli("cr", "--p", "5", "junk", "1:0", "1:1", "2:1").returncode == 2
    assert run_cli("cr", "--p", "6", "0:1", "1:0", "1:1", "2:1").returncode == 2


def test_tri_values():
    r = run_cli("tri", "--p", "7", "0:1", "1:1", "2:1", "3:1", "4:1", "5:1")
    assert r.returncode == 0
    assert r.stdout == "1\n"
    q = run_cli("tri", "--field", "rationals", "--",
                "0:1", "1:0", "1:1", "-1/2:1", "2:1", "3:1")
    assert q.returncode == 0
    assert q.stdout == "-1/3\n"


def test_harmonic_values():
    r = run_cli("harmonic", "--p", "5", "0:1", "1:0", "1:1")
    assert r.returncode == 0
    assert r.stdout == "4:1\n"
    q = run_cli("harmonic", "--field", "rationals", "--", "1:1", "-1:1", "0:1")
    assert q.stdout == "1:0\n"
    js = run_cli("harmonic", "--p", "5", "0:1", "1:0", "1:1", "--format", "json")
    assert json.loads(js.stdout) == {"degenerate": False, "point": "4:1"}


def test_harmonic_char_two_is_degenerate():
    r = run_cli("harmonic", "--p", "2", "0:1", "1:0", "1:1", "--format", "json")
    assert r.returncode == 1
    assert json.loads(r.stdout) == {"degenerate": True, "point": "1:1"}


# -- tables --------------------------------------------------------------------


def test_tables_f5():
    r = run_cli("tables", "--p", "5", "--mu", "2")
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert lines[0] == "F5 mu=2 quad=(0:1, 1:1, 2:1, 1:0)"
    assert len(lines) == 19
    assert all(line.startswith("ok ") for line in lines[1:])
    js = json.loads(run_cli("tables", "--p", "5", "--mu", "2", "--format", "json").stdout)
    assert js["mu"] == "2"
    assert js["quad"] == ["0:1", "1:1", "2:1", "1:0"]
    assert js["pass"] is True
    assert len(js["rows"]) == 18


def test_tables_normalizes_mu_mod_p():
    a = run_cli("tables", "--p", "5", "--mu", "2", binary=True)
    b = run_cli("tables", "--p", "5", "--mu", "7", binary=True)
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def test_tables_rejects_unusable_mu():
    assert run_cli("tables", "--p", "5", "--mu", "0").returncode == 2
    assert run_cli("tables", "--p", "5", "--mu", "1").returncode == 2
    assert run_cli("tables", "--p", "5", "--mu", "6").returncode == 2  # 6 = 1 mod 5
    assert run_cli("tables", "--p", "5", "--mu", "x").returncode == 2
    assert run_cli("tables", "--p", "9", "--mu", "2").returncode == 2


# -- documented mutations -------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_documented_mutation_is_detected(tmp_path, f5_path, name):
    with open(f5_path) as fh:
        doc = json.load(fh)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(mutate_doc(doc, name)))
    if name == "field":
        r = run_cli("reconstruct", "--in", str(path))
    else:
        r = run_cli("check", "--in", str(path))
    assert r.returncode == 1
    assert "FAIL" in r.stdout
    assert "witness:" in r.stdout
