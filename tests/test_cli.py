"""End-to-end tests of the projline command line tool."""

import hashlib
import json

import pytest

from helpers import (
    MUTATIONS,
    NON_GROUPOID,
    SWAPPED_NAMES,
    mutate_doc,
    run_cli,
    seeded_mutation,
    swap_names,
)
from projline.candidate import AXIOM_NAMES, CandidateTable, check_axioms, from_model


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


def test_argparse_errors_exit_2(f5_path):
    assert run_cli("gen").returncode == 2  # missing --p
    assert run_cli("frobnicate").returncode == 2
    assert run_cli("check").returncode == 2  # missing --in
    for cmd in ("check", "reconstruct", "classify"):
        r = run_cli(cmd, "--in", f5_path, "--max-witnesses", "-1")
        assert r.returncode == 2 and r.stdout == ""
        assert "--max-witnesses" in r.stderr
        assert run_cli(cmd, "--in", f5_path, "--max-witnesses", "0").returncode == 0


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


@pytest.mark.parametrize("axioms", ["", ",", " , "])
def test_check_rejects_an_axiom_list_that_names_none(f5_path, axioms):
    r = run_cli("check", "--in", f5_path, "--axioms", axioms)
    assert r.returncode == 2
    assert r.stdout == ""
    assert r.stderr == f"--axioms names no axiom; valid: {', '.join(AXIOM_NAMES)}\n"
    assert check_axioms(from_model(3), which=[]).to_dict() == {
        "name": "axioms", "passed": True, "checks": [],
    }


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


@pytest.mark.parametrize("command", ["check", "reconstruct", "classify"])
def test_undecodable_or_deeply_nested_input_exits_2(tmp_path, f5_path, command):
    with open(f5_path, "rb") as fh:
        stray = fh.read() + b"\xe9"
    for name, data in (("stray.json", stray), ("deep.json", b"[" * 200_000)):
        path = tmp_path / name
        path.write_bytes(data)
        r = run_cli(command, "--in", str(path))
        assert r.returncode == 2, r.stderr
        assert r.stdout == ""
        assert r.stderr.startswith(f"{path}: not valid JSON: ")


def test_gen_to_an_unwritable_path_exits_2(tmp_path):
    for out in (tmp_path, tmp_path / "missing" / "f.json"):
        r = run_cli("gen", "--p", "5", "--out", str(out))
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.startswith(f"cannot write {out}: ")


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
    for cmd in ("reconstruct", "classify"):
        r = run_cli(cmd, "--in", f5_path, "--base", "9:9")
        assert r.returncode == 2
        assert r.stderr == "unknown base object '9:9'\n"


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


@pytest.mark.parametrize("entry, reason", NON_GROUPOID.values(), ids=list(NON_GROUPOID))
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


@pytest.mark.parametrize("p", [5, 7])
def test_relabeled_groupoid_passes_structure_and_every_command_exits_1(tmp_path, p):
    path = tmp_path / "swapped.json"
    path.write_text(json.dumps(swap_names(from_model(p).to_doc(), *SWAPPED_NAMES)))
    r = run_cli("check", "--in", str(path), "--format", "json")
    assert r.returncode == 1, r.stderr
    report = json.loads(r.stdout)
    assert all(c["status"] == "pass" for c in report["structure"]["checks"])
    failing = {c["name"] for c in report["axioms"]["checks"] if c["status"] == "fail"}
    assert failing == {"one", "two", "hex1", "hex2", "as"}
    for cmd, verb in (("reconstruct", "reconstruction"), ("classify", "classification")):
        r = run_cli(cmd, "--in", str(path))
        assert r.returncode == 1, r.stderr
        assert r.stderr.startswith(f"{verb} failed: -1 is not well defined at 0:1: ")


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
    (11, "gen"): "15df9534312d9a7307b0a22559e509855779a28bde9b03a2c918b6c2983e2430",
    (11, "check"): "24246e7e9e74fa6e35b5c32156d5363c2fc471595fb7a52bb1624d137909e2dd",
    (11, "reconstruct"): "7f9bb31c9e91f34675f2903bb381185cf2ef947e392eb7ed11c4d87be60f162a",
    (11, "classify"): "b16debe151e530816e1c15de934a028e65ce472e589e161df2270eb9d26ef7da",
}


GEN_P13_SHA256 = "fe6a8d3647ee80d546b2a3e85edc5400dea28cff23fec4d73a92b64ac189ddfb"


def test_gen_p13_stdout_bytes_are_pinned():
    r = run_cli("gen", "--p", "13", binary=True)
    assert r.returncode == 0
    assert hashlib.sha256(r.stdout).hexdigest() == GEN_P13_SHA256


@pytest.mark.parametrize("p", [5, 7, 11])
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


# SHA-256 of `check --format json --max-witnesses 50` stdout and of the
# compact JSON of check_axioms(table, max_witnesses=50), recorded from the
# nested-loop sweeps these reports must not drift from.  Every case fails
# associativity, so the check stdout skips the axioms; the second hash
# pins the axiom witnesses.  Cases are a documented mutation of F_5 or a
# seeded homset-preserving mutation of F_p.
FAILING_SHA256 = {
    ("doc", "as"): (
        "03e82029e1f105b7fb895e9f19a1db1e98ec1c8aa5a54ef02d6f413e6b8bda5e",
        "b0ee09b754ef6d1b631cbc3634cf9e706ccacf348034168e30ef373aad03d29d",
    ),
    ("doc", "field"): (
        "6f6e3a0e7130e1fccde1542fba1f2dfbfadc7dc8d2e2e92e109c56e99b032c22",
        "1e46ae28198c987ed528720fbf710e441c1b406082154f30463251353c5de578",
    ),
    ("doc", "hex1"): (
        "10cfd34e477d0feca49530ad2dea9a81cb84ed1d0eff00b2515c5b19007a9ba8",
        "e6acd55398aff03196d14831f0c3c0b245e114d27536d4657ae40bf4199c9ed4",
    ),
    ("doc", "hex2"): (
        "46e482c2ec16e130fc95cea85232c5339585ff8c28e06a1d8326666e1c3e27ee",
        "c719db43100d5d25a7248fd76145808c0e820ce46e0e168117ea4a42565b5774",
    ),
    ("doc", "one"): (
        "e507fddd7e3439cd2c3e25562620b1b966802fa296561d371668d4902a70943d",
        "36cf1383dab08591cab7040032837d1befcbfab234e3744fc3b4b83f4f5a70d7",
    ),
    ("doc", "pappus"): (
        "03bdeb2c7cdcf900b0c40276683d59c2937f22a146e263097cbea45735ecb2ef",
        "bfd1b2acb37a560ef53e0b1df10803c8f65b79bd6670f92166825f1903e0595a",
    ),
    ("doc", "two"): (
        "68b171a4f91ab131519cc767e0f96a3f89190860269c6f516326a7f6fc9feebc",
        "c4a0a0804b3e18dc32024b57111180e649d42bd9352fadf5fd6885e166dfc7ea",
    ),
    (5, 0): (
        "a388833d9aad32a4bde3739a88dfc5a2f3c4ccd93e73212fbaddeaaa4458845a",
        "d2226bd2f2cbfc6319f02ebc9b9683319bb66945fa16fcb78381b53233bd3304",
    ),
    (5, 1): (
        "802a711473024664de9e09ee8cc16cf4f6830742d1b373c680b1aee5b89231d5",
        "81eec5530697f84f651b97c8b5a4f7f5aeb7e42b6c58098aa031ea4cd13fc634",
    ),
    (5, 2): (
        "f01f808cb53e128293b27842f6e57dc67ebd24cc7345d8eaac9d8bd409726157",
        "a4bdeaccb4334508a7790d23d5a04c43d34f15a1f20d264165e4e30b9a2b141c",
    ),
    (5, 3): (
        "6ba357fefcbafe333b9eb4e22bde92b17d0bf3e1d9e623e268d750575a07e213",
        "f7da2318007afa4302709a40e493f0847e2b6735f19e0653a111396ab76d1e87",
    ),
    (5, 4): (
        "a09849e8be706b8565000935804162be4d06b91e5a288d27fad3517d00ab48c5",
        "38c420ba2d3ce7e4a5c4ec2ecf05865c5551b5956cbfa7311f3ecd871ef2c24c",
    ),
    (5, 5): (
        "7d55001a2ef514e98653f0e29a10cff2cb221ab4518189f4e2bf926b58dafda6",
        "f7da2318007afa4302709a40e493f0847e2b6735f19e0653a111396ab76d1e87",
    ),
    (7, 0): (
        "7515e0ca57853f008dd6ae649c685931dfe411a0a120900e94b2a784033961b5",
        "e84fbe0169793b8e1d5d503a467256d74225417b6b410a32279c70c7ead03164",
    ),
    (7, 1): (
        "cdc3dffe07c83b215d862022a26e27fb875e0c2d20c488c98b38cdbc4baf144e",
        "d22a662d941f524e99b35bc34d50362da51cd0da7ce153e73f281b7b78f9dd77",
    ),
    (7, 2): (
        "c3c5105983c28116d6fe3c12572293a44e07f8ae5fa5f117c034ea1ac8fd9bc5",
        "d22a662d941f524e99b35bc34d50362da51cd0da7ce153e73f281b7b78f9dd77",
    ),
    (7, 3): (
        "b8ed0e2db905b998ff0f6c897e35d0f8df41da3f768c46d4163e9d1674df8210",
        "d22a662d941f524e99b35bc34d50362da51cd0da7ce153e73f281b7b78f9dd77",
    ),
    (7, 4): (
        "d2856a375b0bb30e5bd89fe9f4275e566d9346adbe2e949f6fecd3fa31e017ac",
        "d22a662d941f524e99b35bc34d50362da51cd0da7ce153e73f281b7b78f9dd77",
    ),
    (7, 5): (
        "8a4df50b168ec74dc6c5b3696d9576a1eb0a5771020b31886f507770dbf4bef9",
        "d22a662d941f524e99b35bc34d50362da51cd0da7ce153e73f281b7b78f9dd77",
    ),
}


@pytest.fixture(scope="module")
def model_docs():
    return {p: from_model(p).to_doc() for p in (5, 7)}


@pytest.mark.parametrize("case", list(FAILING_SHA256), ids=lambda c: f"{c[0]}-{c[1]}")
def test_failing_report_bytes_are_pinned(tmp_path, model_docs, case):
    kind, arg = case
    if kind == "doc":
        doc = mutate_doc(model_docs[5], arg)
    else:
        doc = seeded_mutation(model_docs[kind], arg)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    r = run_cli("check", "--in", str(path), "--format", "json", "--max-witnesses", "50",
                binary=True)
    assert r.returncode == 1
    axioms = check_axioms(CandidateTable.from_doc(doc), max_witnesses=50).to_dict()
    got = (
        hashlib.sha256(r.stdout).hexdigest(),
        hashlib.sha256(json.dumps(axioms, separators=(",", ":")).encode()).hexdigest(),
    )
    assert got == FAILING_SHA256[case]


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
