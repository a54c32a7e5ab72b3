import io
import sys

import pytest

from fullerkit.cli import main
from fullerkit.growth import seed_dodecahedron
from fullerkit.maps import CombMap
from fullerkit.planarcode import read_planar_code, write_planar_code
from paper_lemmas import screw_family_two


def run(tmp_path, *argv, infile=None):
    args = list(argv)
    if infile is not None:
        args += ["--in", str(infile)]
    out = tmp_path / ("out%d.bin" % (len(list(tmp_path.iterdir()))))
    args += ["--out", str(out)]
    code = main(args)
    return code, out


def test_gen_dodecahedron(tmp_path, dodecahedron):
    code, out = run(tmp_path, "gen", "--family", "dodeca")
    assert code == 0
    (m,) = read_planar_code(out.read_bytes())
    assert m.is_isomorphic(dodecahedron)


def test_gen_grow_canon_pipeline(tmp_path):
    _, seeds = run(tmp_path, "gen", "--family", "barrel")
    code, grown = run(tmp_path, "grow", "--rule", "c", "--site", "0",
                      infile=seeds)
    assert code == 0
    code, canon = run(tmp_path, "canon", infile=grown)
    assert code == 0
    lines = canon.read_text().splitlines()
    assert len(lines) == 1
    bytes.fromhex(lines[0])  # valid hex


def test_enumerate_and_canon_counts(tmp_path):
    code, maps = run(tmp_path, "enumerate", "--max-p6", "3")
    assert code == 0
    _, canon = run(tmp_path, "canon", infile=maps)
    assert len(canon.read_text().splitlines()) == 3


def test_enumerate_has_no_jobs_option():
    with pytest.raises(SystemExit) as e:
        main(["enumerate", "--max-p6", "0", "--jobs", "2"])
    assert e.value.code == 2


@pytest.mark.parametrize("argv", [["gen", "--family", "dodeca"],
                                  ["enumerate", "--max-p6", "0"]])
def test_commands_that_read_no_maps_reject_in(tmp_path, argv):
    # they used to accept --in and silently ignore it
    out = tmp_path / "out.bin"
    with pytest.raises(SystemExit) as e:
        main(argv + ["--in", str(tmp_path / "missing.bin"), "--out", str(out)])
    assert e.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("family", ["dodeca", "barrel"])
@pytest.mark.parametrize("k", ["-3", "0"])
def test_gen_rejects_k_for_fixed_seeds(tmp_path, capsys, family, k):
    assert main(["gen", "--family", family, "--k", k,
                 "--out", str(tmp_path / "out.bin")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("fullerkit: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out.bin").exists()


def test_gen_family_one_defaults_to_k_zero(tmp_path, dodecahedron):
    code, out = run(tmp_path, "gen", "--family", "one")
    assert code == 0
    (m,) = read_planar_code(out.read_bytes())
    assert m.is_isomorphic(dodecahedron)


@pytest.mark.parametrize("argv", [["verify"], ["verify", "--intermediate"],
                                  ["match", "--pattern", "{tmp}/cap.txt"]])
def test_empty_stream_writes_nothing(tmp_path, argv):
    (tmp_path / "cap.txt").write_text(CAP_FILE)
    src = tmp_path / "empty.bin"
    src.write_bytes(b">>planar_code<<")
    out = tmp_path / "out.txt"
    args = [a.format(tmp=tmp_path) for a in argv]
    assert main(args + ["--in", str(src), "--out", str(out)]) == 0
    assert out.read_bytes() == b""


def test_verify_pass_and_fail(tmp_path, capsys):
    _, seeds = run(tmp_path, "gen", "--family", "dodeca")
    assert main(["verify", "--in", str(seeds)]) == 0
    out = capsys.readouterr().out
    assert "record 0: PASS" in out

    _, mids = run(tmp_path, "decompose", "--rule", "a", infile=seeds)
    capsys.readouterr()
    assert main(["verify", "--in", str(mids)]) == 1
    assert main(["verify", "--intermediate", "--in", str(mids)]) == 0


def test_verify_intermediate_across_two_edge_cut(tmp_path, capsys,
                                                joined_intermediate):
    src = tmp_path / "joined.bin"
    src.write_bytes(write_planar_code([joined_intermediate]))
    assert main(["verify", "--intermediate", "--in", str(src)]) == 1
    assert "record 0: FAIL face-sizes" in capsys.readouterr().out


def test_decompose_emits_script_intermediates(tmp_path):
    _, seeds = run(tmp_path, "gen", "--family", "dodeca")
    code, mids = run(tmp_path, "decompose", "--rule", "a", infile=seeds)
    assert code == 0
    chain = read_planar_code(mids.read_bytes())
    assert len(chain) >= 2
    # vertex counts rise by two per step
    counts = [m.f0 for m in chain]
    assert counts == sorted(counts)
    assert counts[-1] - counts[0] == 2 * (len(chain) - 1)


@pytest.mark.parametrize("rule", ["a", "b", "d"])
def test_grow_on_an_intermediate_blames_the_input(tmp_path, capsys, rule):
    _, seeds = run(tmp_path, "gen", "--family", "dodeca")
    _, mids = run(tmp_path, "decompose", "--rule", rule, infile=seeds)
    capsys.readouterr()
    code, _ = run(tmp_path, "grow", "--rule", rule, infile=mids)
    assert code == 1
    assert capsys.readouterr().err == (
        "fullerkit: rule %s expects a fullerene\n" % rule)


CUBE = CombMap.from_rotations([
    [1, 3, 4], [0, 5, 2], [1, 6, 3], [2, 7, 0],
    [0, 7, 5], [1, 4, 6], [2, 5, 7], [3, 6, 4]])


@pytest.mark.parametrize("command,message", [
    ("grow", "rule c expects a fullerene"),
    ("decompose", "rule c expects a fullerene"),
    ("invert", "rule c inverse expects a fullerene"),
])
def test_rule_on_a_map_without_sites_blames_the_input(tmp_path, capsys,
                                                      command, message):
    # the cube has no site of any rule: the error names the input, not the
    # site index
    src = tmp_path / "cube.bin"
    src.write_bytes(write_planar_code([CUBE]))
    code, _ = run(tmp_path, command, "--rule", "c", infile=src)
    assert code == 1
    assert capsys.readouterr().err == "fullerkit: %s\n" % message


def test_grow_then_invert_roundtrip(tmp_path):
    _, seeds = run(tmp_path, "gen", "--family", "barrel")
    _, grown = run(tmp_path, "grow", "--rule", "c", infile=seeds)
    code, back = run(tmp_path, "invert", "--rule", "c", infile=grown)
    assert code == 0
    assert read_planar_code(back.read_bytes())[0].is_isomorphic(
        read_planar_code(seeds.read_bytes())[0])


CAP_FILE = """
pattern cap
  C 5 R0 R4 R3 R2 R1
  R0 5 C R1 B B R4
  R1 5 C R2 B B R0
  R2 5 C R3 B B R1
  R3 5 C R4 B B R2
  R4 5 C R0 B B R3
end
"""


def test_match_counts(tmp_path, capsys):
    _, seeds = run(tmp_path, "gen", "--family", "dodeca")
    patfile = tmp_path / "cap.txt"
    patfile.write_text(CAP_FILE)
    assert main(["match", "--pattern", str(patfile),
                 "--in", str(seeds)]) == 0
    out = capsys.readouterr().out
    assert "record 0 pattern cap: 12 matches" in out


def test_match_rejects_all_wildcard_pattern(tmp_path, capsys):
    _, seeds = run(tmp_path, "gen", "--family", "dodeca")
    patfile = tmp_path / "f.txt"
    patfile.write_text("pattern any\n  A * B B B B B\nend\n")
    assert main(["match", "--pattern", str(patfile),
                 "--in", str(seeds)]) == 1
    err = capsys.readouterr().err
    assert err == ("fullerkit: line 1: invalid pattern: pattern needs a "
                   "face of fixed size\n")


def test_match_rejects_a_face_bordering_itself(tmp_path, capsys):
    _, seeds = run(tmp_path, "gen", "--family", "two", "--k", "3")
    patfile = tmp_path / "x.txt"
    patfile.write_text("pattern X\nA 5 A B B B B\nend\n")
    assert main(["match", "--pattern", str(patfile),
                 "--in", str(seeds)]) == 1
    assert capsys.readouterr().err == (
        "fullerkit: line 1: invalid pattern: face 'A' borders itself\n")


def test_gen_family_two(tmp_path):
    code, out = run(tmp_path, "gen", "--family", "two", "--k", "3")
    assert code == 0
    (m,) = read_planar_code(out.read_bytes())
    assert m.is_isomorphic(screw_family_two(3))


def test_render_svg_output(tmp_path):
    _, seeds = run(tmp_path, "gen", "--family", "dodeca")
    code, svg = run(tmp_path, "render", infile=seeds)
    assert code == 0
    text = svg.read_text()
    assert text.startswith("<svg")
    assert text.count("<polygon") == 12


def test_bad_site_exits_one(tmp_path):
    _, seeds = run(tmp_path, "gen", "--family", "barrel")
    code, _ = run(tmp_path, "grow", "--rule", "c", "--site", "999",
                  infile=seeds)
    assert code == 1


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as e:
        main(["grow"])  # missing required --rule
    assert e.value.code == 2


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as e:
        main(["frobnicate"])
    assert e.value.code == 2


DODECAHEDRON = write_planar_code([seed_dodecahedron()])
TWO_DODECAHEDRA = write_planar_code([seed_dodecahedron()] * 2)


@pytest.mark.parametrize("argv,data", [
    (["canon"], b"garbage\n"),
    (["canon"], b">>planar_code<<\x04\x02\x03\x04\x00\x01"),
    (["gen", "--family", "one", "--k", "24"], None),   # 260 vertices
    (["gen", "--family", "two", "--k", "40"], None),   # 260 vertices
    (["canon", "--in", "{tmp}/missing.bin"], None),
    (["match", "--pattern", "{tmp}/missing.txt"], DODECAHEDRON),
    (["match", "--pattern", "{tmp}/in.bin"], b"\xff\xfe"),
    (["render", "--outer", "99"], DODECAHEDRON),
    (["render", "--outer", "-1"], DODECAHEDRON),
    (["match", "--pattern", "{tmp}/in.bin"], b""),
    (["gen", "--family", "dodeca", "--out", "{tmp}/nodir/x.bin"], None),
    (["canon", "--out", "{tmp}/nodir/x.txt"], DODECAHEDRON),
    (["decompose", "--rule", "a"], TWO_DODECAHEDRA),
    (["render"], TWO_DODECAHEDRA),
], ids=["bad-header", "truncated-record", "too-many-vertices",
        "too-many-vertices-family-two",
        "missing-input", "missing-pattern", "undecodable-pattern",
        "outer-face-too-large", "outer-face-negative", "empty-pattern",
        "unwritable-maps-out", "unwritable-text-out",
        "decompose-two-maps", "render-two-maps"])
def test_library_errors_are_one_line(tmp_path, capsys, argv, data):
    args = [a.format(tmp=tmp_path) for a in argv]
    if data is not None:
        src = tmp_path / "in.bin"
        src.write_bytes(data)
        args += ["--in", str(src)]
    if "--out" not in args:
        args += ["--out", str(tmp_path / "out")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("fullerkit: ")
    assert err.count("\n") == 1


def test_maps_pipe_through_stdin_and_stdout(capsysbinary, monkeypatch):
    assert main(["gen", "--family", "dodeca"]) == 0
    data = capsysbinary.readouterr().out
    assert data == DODECAHEDRON
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    assert main(["canon"]) == 0
    code = seed_dodecahedron().canonical_code()
    assert capsysbinary.readouterr().out == code.hex().encode() + b"\n"


class ClosedPipe:
    """Standard output whose reader has gone: every write fails."""

    buffer = property(lambda self: self)

    def write(self, data):
        raise BrokenPipeError


@pytest.mark.parametrize("argv", [["gen", "--family", "dodeca"],
                                  ["canon", "--in", "{tmp}/in.bin"]],
                         ids=["maps", "text"])
def test_a_closed_output_pipe_exits_zero(tmp_path, capsys, monkeypatch,
                                         argv):
    # capsys first, so that monkeypatch puts its stream back before capsys
    # puts back the real one
    (tmp_path / "in.bin").write_bytes(DODECAHEDRON)
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main([a.format(tmp=tmp_path) for a in argv]) == 0
    assert capsys.readouterr().err == ""
