"""End-to-end CLI tests: output strings, exit codes, cache behavior, and
the JSON render -> parse -> render fixed point."""

import ast
import inspect
import json
import struct
import zlib

import pytest

from sagan import cache as cache_mod
from sagan import cli as cli_mod
from sagan.cache import cache_path, read_cache
from sagan.cli import EXIT_AMBIGUITY, EXIT_CACHE, EXIT_NOT_FOUND, EXIT_OK, EXIT_USAGE, digit_glyphs, main
from sagan.digits import ConstantSpec, digits_in_base


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDigitsCommand:
    def test_pi_base11(self, capsys):
        code, out, _ = run(capsys, "digits", "--constant", "pi", "--base", "11", "--count", "6")
        assert code == EXIT_OK and out.strip() == "161507"

    def test_rational(self, capsys):
        code, out, _ = run(capsys, "digits", "--constant", "rational:1/3",
                           "--base", "10", "--count", "4")
        assert code == EXIT_OK and out.strip() == "3333"

    def test_pi_decimal(self, capsys):
        code, out, _ = run(capsys, "digits", "--constant", "pi", "--base", "10", "--count", "12")
        assert code == EXIT_OK and out.strip() == "141592653589"

    def test_hex_glyphs(self, capsys):
        code, out, _ = run(capsys, "digits", "--constant", "pi", "--base", "16", "--count", "8")
        assert code == EXIT_OK and out.strip() == "243f6a88"

    def test_unknown_constant(self, capsys):
        code, _, err = run(capsys, "digits", "--constant", "zeta3", "--count", "4")
        assert code == EXIT_USAGE and "zeta3" in err


class TestCacheFlow:
    def test_cache_write_then_reuse(self, capsys, tmp_path):
        argv = ("digits", "--constant", "pi", "--base", "10", "--count", "20",
                "--cache", "--cache-dir", str(tmp_path))
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        path = cache_path(tmp_path, "pi", 10)
        assert read_cache(path, 10, "pi")[:6] == bytes([1, 4, 1, 5, 9, 2])
        # shorter request served from the same file
        code, out, _ = run(capsys, "digits", "--constant", "pi", "--base", "10",
                           "--count", "6", "--cache", "--cache-dir", str(tmp_path))
        assert code == EXIT_OK and out.strip() == "141592"

    def test_cache_hit_takes_the_payload_bytes(self, capsys, tmp_path, monkeypatch):
        argv = ("digits", "--constant", "pi", "--base", "11", "--cache", "--cache-dir", str(tmp_path))
        code, miss, _ = run(capsys, *argv, "--count", "3000")
        assert code == EXIT_OK
        decoded = []
        decode = cache_mod.decode

        def spy(blob):
            result = decode(blob)
            decoded.append(type(result[2]))
            return result

        monkeypatch.setattr(cache_mod, "decode", spy)
        for count in (3000, 2500):
            code, hit, _ = run(capsys, *argv, "--count", str(count))
            assert code == EXIT_OK and hit == miss[:count] + "\n"
        assert decoded == [bytes, bytes]  # one decode per hit, to bytes

    @pytest.mark.parametrize("base, ident", [(10, "e"), (11, "pi")])
    def test_cache_file_of_another_constant_or_base_exits_three(self, capsys, tmp_path,
                                                                base, ident):
        path = cache_path(tmp_path, "pi", 10)
        cache_mod.write_cache(path, base, ident, [1, 4, 1, 5])
        code, out, err = run(capsys, "digits", "--constant", "pi", "--count", "3",
                             "--cache", "--cache-dir", str(tmp_path))
        assert code == EXIT_CACHE and out == ""
        assert err == f"cache error: cache file {path} holds {ident} base {base}\n"
        assert read_cache(path, base, ident) == bytes([1, 4, 1, 5])

    def test_cache_extension_rewrites(self, capsys, tmp_path):
        run(capsys, "digits", "--constant", "sqrt2", "--count", "5",
            "--cache", "--cache-dir", str(tmp_path))
        run(capsys, "digits", "--constant", "sqrt2", "--count", "9",
            "--cache", "--cache-dir", str(tmp_path))
        assert len(read_cache(cache_path(tmp_path, "sqrt2", 10), 10, "sqrt2")) == 9

    def test_corrupt_cache_exits_three(self, capsys, tmp_path):
        run(capsys, "digits", "--constant", "pi", "--count", "8",
            "--cache", "--cache-dir", str(tmp_path))
        path = cache_path(tmp_path, "pi", 10)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        code, _, err = run(capsys, "digits", "--constant", "pi", "--count", "8",
                           "--cache", "--cache-dir", str(tmp_path))
        assert code == EXIT_CACHE and "CRC" in err

    def test_invalid_identifier_bytes_exit_three(self, capsys, tmp_path):
        run(capsys, "digits", "--constant", "pi", "--count", "8",
            "--cache", "--cache-dir", str(tmp_path))
        path = cache_path(tmp_path, "pi", 10)
        blob = bytearray(path.read_bytes())
        blob[8] = 0xFF  # first identifier byte, CRC recomputed to match
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
        path.write_bytes(bytes(blob))
        code, _, err = run(capsys, "digits", "--constant", "pi", "--count", "8",
                           "--cache", "--cache-dir", str(tmp_path))
        assert code == EXIT_CACHE and "UTF-8" in err

    def test_unwritable_cache_dir_exits_three(self, capsys, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_bytes(b"")
        code, out, err = run(capsys, "digits", "--constant", "pi", "--count", "5",
                             "--cache", "--cache-dir", str(not_a_dir))
        assert code == EXIT_CACHE and out == ""
        assert err.startswith("cache error:") and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    def test_env_var_cache_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("SAGAN_CACHE_DIR", str(tmp_path))
        code, _, _ = run(capsys, "digits", "--constant", "e", "--count", "5", "--cache")
        assert code == EXIT_OK
        assert cache_path(tmp_path, "e", 10).exists()


class TestCircleCommand:
    def test_flat_naive_three(self, capsys):
        code, out, _ = run(capsys, "circle", "-n", "3", "--scheme", "naive", "--flat")
        assert code == EXIT_OK and out.strip() == "111101111"

    def test_single_pixel(self, capsys):
        code, out, _ = run(capsys, "circle", "-n", "1")
        assert code == EXIT_OK and out.strip() == "#"

    def test_center_five(self, capsys):
        code, out, _ = run(capsys, "circle", "-n", "5", "--scheme", "center")
        assert out.splitlines() == [".###.", "#...#", "#...#", "#...#", ".###."]

    def test_frame(self, capsys):
        _, out, _ = run(capsys, "circle", "-n", "1", "--frame")
        assert out.splitlines() == ["...", ".#.", "..."]

    def test_bad_n(self, capsys):
        code, _, err = run(capsys, "circle", "-n", "0")
        assert code == EXIT_USAGE

    def test_radius_override(self, capsys):
        code, out, _ = run(capsys, "circle", "-n", "5", "--scheme", "naive",
                           "--radius", "31/20", "--flat")
        assert code == EXIT_OK and out.strip().startswith("00100")

    def test_ellipse(self, capsys):
        code, out, _ = run(capsys, "ellipse", "-a", "4", "-b", "3",
                           "--width", "8", "--height", "6")
        assert code == EXIT_OK and len(out.splitlines()) == 6


class TestSearchCommand:
    def test_pi_pair_found(self, capsys):
        code, out, _ = run(capsys, "search", "--constant", "pi", "--base", "10",
                           "-n", "2", "--limit", "20000")
        assert code == EXIT_OK
        assert "position 12700" in out
        assert "144111126" in out.replace(" ", "").replace(".", "")

    def test_single_digit_found(self, capsys):
        code, out, _ = run(capsys, "search", "--constant", "pi", "--base", "10",
                           "-n", "1", "--limit", "10")
        assert code == EXIT_OK and "position 1" in out

    def test_not_found_exit_code(self, capsys):
        code, out, _ = run(capsys, "search", "--constant", "rational:1/3",
                           "--base", "10", "-n", "2", "--limit", "200")
        assert code == EXIT_NOT_FOUND and "not found" in out

    def test_json_fixed_point(self, capsys):
        argv = ("search", "--constant", "pi", "--base", "10", "-n", "2",
                "--limit", "20000", "--format", "json")
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        record = json.loads(out)
        assert record["position"] == 12700
        assert record["window"] == "1111"
        assert record["constant"] == "pi"
        rendered = json.dumps(record, indent=2, sort_keys=True)
        assert rendered == out.strip()
        assert json.dumps(json.loads(rendered), indent=2, sort_keys=True) == rendered

    def test_generalized_sets(self, capsys):
        code, out, _ = run(capsys, "search", "--constant", "pi", "--base", "10",
                           "-n", "1", "--circle-digits", "1,7",
                           "--background-digits", "0,3",
                           "--limit", "100", "--format", "json")
        record = json.loads(out)
        assert code == EXIT_OK and record["P"] == [1, 7] and record["Q"] == [0, 3]

    def test_block_size_past_the_limit(self):
        # no read goes past limit + context width, so a huge --block-size
        # costs no more than the default and prints the same
        import subprocess
        import sys
        from pathlib import Path

        import sagan
        src = str(Path(sagan.__file__).resolve().parents[1])
        argv = [sys.executable, "-m", "sagan.cli", "search", "--constant", "pi",
                "-n", "1", "--limit", "100"]
        default, huge = (subprocess.run(argv + extra, capture_output=True, text=True,
                                        timeout=5, env={"PYTHONPATH": src})
                         for extra in ([], ["--block-size", "1000000"]))
        assert default.returncode == huge.returncode == EXIT_OK
        assert huge.stdout == default.stdout and "position 1 " in huge.stdout

    def test_mismatched_class_flags(self, capsys):
        code, _, err = run(capsys, "search", "--constant", "pi", "--base", "10",
                           "-n", "1", "--circle-digits", "1,7", "--limit", "100")
        assert code == EXIT_USAGE


class TestBbpCommand:
    def test_pi_window(self, capsys):
        code, out, _ = run(capsys, "bbp", "--position", "1", "--count", "8")
        assert code == EXIT_OK
        assert out.startswith("243f6a88")
        assert "guard bits" in out

    def test_long_window_assembled(self, capsys):
        code, out, _ = run(capsys, "bbp", "--position", "1", "--count", "12")
        assert code == EXIT_OK and out.startswith("243f6a8885a3")

    def test_wide_window_one_extraction(self, capsys):
        code, out, _ = run(capsys, "bbp", "--position", "3", "--count", "40")
        native = digit_glyphs(digits_in_base(ConstantSpec.pi(), 16, 42).data)
        assert code == EXIT_OK
        assert out == f"{native[2:]} (guard bits: 64)\n"

    def test_base_mismatch(self, capsys):
        code, _, err = run(capsys, "bbp", "--position", "1", "--count", "4",
                           "--base", "10")
        assert code == EXIT_USAGE

    def test_log2(self, capsys):
        code, out, _ = run(capsys, "bbp", "--constant", "log2",
                           "--position", "1", "--count", "8")
        assert code == EXIT_OK and out.startswith("10110001")

    def test_position_past_int64_exponents(self, capsys):
        code, out, err = run(capsys, "bbp", "--position", "9223372036854775809", "--count", "1")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: position must be at most") and "Traceback" not in err


class TestNormalityCommand:
    def test_table_output(self, capsys):
        code, out, _ = run(capsys, "normality", "--constant", "rational:1/3",
                           "--base", "10", "--length", "10000", "--kmax", "1")
        assert code == EXIT_OK
        assert "<1e-308" in out
        assert "proves nothing" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "normality", "--constant", "champernowne10",
                           "--base", "10", "--length", "2000", "--kmax", "2",
                           "--format", "json")
        record = json.loads(out)
        assert code == EXIT_OK and len(record["per_k"]) == 2
        rendered = json.dumps(record, indent=2, sort_keys=True)
        assert rendered == out.strip()


class TestEstimateCommand:
    def test_reference_line(self, capsys):
        code, out, _ = run(capsys, "estimate", "--base", "11", "--window", "2048")
        assert code == EXIT_OK
        assert out.strip() == "5.919e2132 digits; ~1.4e2106 universe ages"

    def test_n_flag(self, capsys):
        code, out, _ = run(capsys, "estimate", "--base", "11", "-n", "2")
        assert code == EXIT_OK and out.startswith("1.464e4")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "estimate", "--base", "2", "--window", "10",
                           "--format", "json")
        record = json.loads(out)
        assert record["expected_digits"] == "1.024e3"
        assert record["cpu_years"] == "3.200e-14"  # 1024 / 3.2e16

    @pytest.mark.parametrize("argv", (("--window", "1000000000000000000"),
                                      ("-n", "1000000000"),
                                      ("--window", "999999999999999999", "--ns-per-digit", "10")),
                             ids=("window", "n", "cost"))
    def test_past_the_decimal_exponent_limit(self, capsys, argv):
        code, out, err = run(capsys, "estimate", "--base", "10", *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and "MAX_EMAX" in err and "Traceback" not in err

    def test_at_the_decimal_exponent_limit(self, capsys):
        code, out, _ = run(capsys, "estimate", "--base", "10", "--window", "999999999999999999")
        assert code == EXIT_OK and out.startswith("1.000e999999999999999999 digits")


class TestGlyphs:
    def test_alphabet(self):
        assert digit_glyphs([0, 9, 10, 35, 36, 255]) == "09az[36][255]"
        assert digit_glyphs(b"") == ""
        assert digit_glyphs(bytes(range(36))) == "0123456789abcdefghijklmnopqrstuvwxyz"
        assert digit_glyphs(bytes([36])) == "[36]"


class TestUsageErrors:
    def test_argparse_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["digits", "--count", "5"])  # missing --constant
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("alias", ["--p-set", "--q-set"])
    def test_digit_class_flags_have_one_spelling(self, capsys, alias):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--constant", "pi", "-n", "1", "--limit", "10", alias, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {alias} 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (("search", "--constant", "pi", "-n", "0", "--limit", "100"), "n must be in 1..4096"),
        (("search", "--constant", "pi", "-n", "5000", "--limit", "100"), "n must be in 1..4096"),
        (("search", "--constant", "pi", "-n", "2", "--limit", "100", "--block-size", "0"),
         "error: block_size must be >= 1"),
        (("normality", "--constant", "pi", "--length", "0"), "error: count must be >= 1"),
        (("ellipse", "-a", "0", "-b", "3", "--width", "8", "--height", "6"),
         "error: semi-axes must be positive"),
        (("ellipse", "-a", "4", "-b", "3", "--width", "0", "--height", "6"),
         "width and height must be in 1..4096"),
        (("ellipse", "-a", "4", "-b", "3", "--width", "4097", "--height", "6"),
         "width and height must be in 1..4096"),
        (("ellipse", "-a", "4", "-b", "3", "--width", "8", "--height", "0"),
         "width and height must be in 1..4096"),
        (("ellipse", "-a", "4", "-b", "3", "--width", "8", "--height", "4097"),
         "width and height must be in 1..4096"),
        (("digits", "--constant", "champernowne300", "--count", "900"),
         "error: champernowne base must be in 2..256"),
    ])
    def test_bad_argument_exits_two(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert message in err


class TestErrorExitCodes:
    def test_precision_exhausted_exits_four(self, capsys, monkeypatch):
        from sagan import cli
        from sagan.errors import PrecisionExhausted

        def explode(*args, **kwargs):
            raise PrecisionExhausted("simulated budget blowout")

        monkeypatch.setattr(cli, "digits_in_base", explode)
        code, _, err = run(capsys, "digits", "--constant", "pi", "--count", "6")
        assert code == 4 and "precision" in err

    def test_carry_ambiguity_exits_five(self, capsys, monkeypatch):
        from sagan import cli
        from sagan.errors import CarryAmbiguity

        def explode(*args, **kwargs):
            raise CarryAmbiguity("simulated unresolved carry")

        monkeypatch.setattr(cli.bbp_mod, "digit_extract_info", explode)
        code, _, err = run(capsys, "bbp", "--position", "7", "--count", "4")
        assert code == EXIT_AMBIGUITY and "carry" in err

    def test_unresolved_carry_exits_five_end_to_end(self, capsys, monkeypatch):
        # acc = 0 lies on a band edge at every guard, so the certifier's
        # PrecisionExhausted must come out of digit_extract_info as CarryAmbiguity
        from sagan import bbp

        monkeypatch.setattr(bbp, "_scaled_fraction", lambda *args: (0, 2))
        code, out, err = run(capsys, "bbp", "--position", "5")
        assert code == EXIT_AMBIGUITY and out == ""
        assert err.startswith("carry ambiguity:") and "512 guard bits" in err


class TestConsoleScript:
    def test_installed_entry_point(self):
        import subprocess
        proc = subprocess.run(["sagan", "digits", "--constant", "pi",
                               "--base", "11", "--count", "6"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "161507"


class TestModuleEntryPoint:
    @pytest.mark.parametrize("argv, code, out", [
        (["digits", "--constant", "pi", "--base", "11", "--count", "6"], EXIT_OK, "161507"),
        (["circle", "-n", "0"], EXIT_USAGE, ""),
    ])
    def test_python_m_sagan(self, argv, code, out):
        # runs from the source tree, as no console script can be assumed installed
        import os
        import subprocess
        import sys
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "sagan", *argv], capture_output=True,
                              text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.strip() == out


class TestCliModule:
    def test_uses_no_private_name_of_another_module(self):
        # a private name is a decision its module owns; the CLI calls the
        # module's public names instead of making the decision a second time
        tree = ast.parse(inspect.getsource(cli_mod))
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                   and (node.level == 1 or (node.module or "").startswith("sagan"))]
        modules = {alias.asname or alias.name for node in imports
                   if node.module in (None, "sagan") for alias in node.names}
        private = [alias.name for node in imports for alias in node.names
                   if alias.name.startswith("_")]
        private += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules and node.attr.startswith("_")]
        assert modules and private == []

    def test_search_defaults_have_one_owner(self):
        # the block size belongs to digits and the context width to search;
        # the CLI and the library entry points read theirs, restating none
        from sagan.digits import DEFAULT_BLOCK_SIZE, open_stream
        from sagan.search import CONTEXT_WIDTH, find_first

        args = cli_mod.build_parser().parse_args(
            ["search", "--constant", "pi", "-n", "2", "--limit", "100"])
        assert (args.block_size, args.context_width) == (DEFAULT_BLOCK_SIZE, CONTEXT_WIDTH)
        assert open_stream(ConstantSpec.pi(), 10).block_size == DEFAULT_BLOCK_SIZE
        assert inspect.signature(find_first).parameters["context_width"].default == CONTEXT_WIDTH
