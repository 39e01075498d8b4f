import json
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qpanet.cli import main
from qpanet.measures import SCAN_CELLS


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSweepCommand:
    def test_grid_row_count_and_csv(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code, _, err = run(
            [
                "sweep",
                "--family",
                "exponential",
                "--q",
                "0.2:1.0:0.2",
                "--beta",
                "2,4",
                "--theta-max",
                "4",
                "-o",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 5 * 2  # header + 5 q-values x 2 betas
        assert lines[0].startswith("family,x,beta,theta_max,")
        assert "grid points" in err

    def test_absent_critical_is_empty_field(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code, _, _ = run(
            [
                "sweep",
                "--family",
                "bernoulli",
                "--p",
                "1",
                "--beta",
                "2",
                "--theta-max",
                "8",
                "-o",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        row = out.read_text().splitlines()[1].split(",")
        assert row[4] == ""  # crit_q_mean

    def test_domain_error_exits_2(self, tmp_path, capsys):
        # each bad grid input is rejected before the sweep starts
        for flag, value in [
            ("--q", "-1"),
            ("--beta", "0"),
            ("--beta", "2.5"),
            ("--theta-max", "0"),
        ]:
            args = {"--q": "0.5", "--beta": "2", "--theta-max": "8", flag: value}
            out = tmp_path / "x.csv"
            code, stdout, err = run(
                ["sweep", "--family", "exponential"]
                + [part for item in args.items() for part in item]
                + ["-o", str(out)],
                capsys,
            )
            assert code == 2, (flag, value)
            assert "error" in err, (flag, value)
            assert stdout == "", (flag, value)
            assert not out.exists(), (flag, value)

    @pytest.mark.parametrize(
        "family, flags, other",
        [("bernoulli", ["--p", "0.5", "--q", "0.5"], "--q"),
         ("exponential", ["--q", "0.5", "--p", "0.5"], "--p")],
    )
    def test_other_family_flag_exits_2(self, tmp_path, capsys, family, flags, other):
        # a flag of the other family is refused, as by simulate and nn-table,
        # not accepted and ignored
        out = tmp_path / "x.csv"
        code, stdout, err = run(
            ["sweep", "--family", family, *flags, "--beta", "2", "--theta-max", "4"]
            + ["-o", str(out)],
            capsys,
        )
        assert code == 2
        assert f"{other} is not valid with the {family} family" in err
        assert stdout == ""
        assert not out.exists()

    def test_tail_overflow_exits_3(self, tmp_path, capsys):
        # g = mu/beta = 125: the degree row's tail amplitude leaves float
        # range, so the grid point fails with the reason and the command
        # exits 3 (numeric non-convergence), not with a traceback
        out = tmp_path / "x.csv"
        code, _, err = run(
            ["sweep", "--family", "bernoulli", "--p", "0.5", "--beta", "1"]
            + ["--theta-max", "250", "-o", str(out)],
            capsys,
        )
        assert code == 3
        assert "NonConvergenceError" in err and "exponent 127" in err

    def test_median_past_grid_exits_3(self, tmp_path, capsys):
        # beta = 512: the degree row's median lies past the scan's grid; the
        # grid point fails with the reason and the command exits 3
        out = tmp_path / "x.csv"
        code, _, err = run(
            ["sweep", "--family", "exponential", "--q", "0.5", "--beta", "512"]
            + ["--theta-max", "4", "-o", str(out)],
            capsys,
        )
        assert code == 3
        assert "NonConvergenceError" in err and f"{SCAN_CELLS}-cell grid" in err

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run(["sweep", "--bogus", "1"], capsys)
        assert code == 2
        # the scan's grids are fixed: there is no tolerance to set
        code, _, err = run(
            ["sweep", "--family", "exponential", "--q", "0.5", "--beta", "2"]
            + ["--theta-max", "8", "--rel-tol", "-1"],
            capsys,
        )
        assert code == 2
        assert "unrecognized arguments: --rel-tol" in err

    def test_byte_determinism(self, tmp_path, capsys):
        args = [
            "sweep",
            "--family",
            "exponential",
            "--q",
            "0.5,1.5",
            "--beta",
            "2",
            "--theta-max",
            "4",
        ]
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(args + ["-o", str(a)], capsys)[0] == 0
        assert run(args + ["-o", str(b), "--threads", "2"], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        code, _, _ = run(
            [
                "sweep",
                "--family",
                "exponential",
                "--q",
                "0.5",
                "--beta",
                "2",
                "--theta-max",
                "4",
                "--format",
                "json",
                "-o",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert len(payload["rows"]) == 1

    def test_json_rows_carry_notes(self, tmp_path, capsys):
        # q 1.6, beta 2, theta_max 4: a mean neighbor degree lies within
        # 2e-2 of its degree on the scan, so the degree criticals are
        # re-decided on the finer grid, and the row says so
        out = tmp_path / "out.json"
        args = ["sweep", "--family", "exponential", "--q", "1.6", "--beta", "2"]
        code, _, _ = run(args + ["--theta-max", "4", "--format", "json", "-o", str(out)], capsys)
        assert code == 0
        row = json.loads(out.read_text())["rows"][0]
        (note,) = row["qpa"]["notes"]
        assert note.startswith("near tie: mean margin ")
        assert note.endswith(
            f"on the {SCAN_CELLS}-cell scan, re-decided on {4 * SCAN_CELLS} cells"
        )
        assert row["uncorrelated"]["notes"] == []


class TestSimulateCommand:
    def test_report_structure(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code, _, _ = run(
            [
                "simulate",
                "--mode",
                "qpa",
                "--n",
                "2000",
                "--beta",
                "2",
                "--family",
                "exponential",
                "--q",
                "0.5",
                "--theta-max",
                "4",
                "--seed",
                "42",
                "--replicas",
                "3",
                "-o",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert payload["seeds"] == [42, 43, 44]
        assert len(payload["replicas"]) == 3
        for rep in payload["replicas"]:
            for v in rep["fractions"].values():
                assert 0.0 <= v <= 1.0

    def test_determinism_byte_identical(self, tmp_path, capsys):
        args = [
            "simulate",
            "--mode",
            "qpa",
            "--n",
            "3000",
            "--beta",
            "2",
            "--family",
            "bernoulli",
            "--p",
            "0.5",
            "--theta-max",
            "8",
            "--seed",
            "7",
            "--replicas",
            "2",
        ]
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        ea = tmp_path / "ea.txt"
        eb = tmp_path / "eb.txt"
        assert run(args + ["-o", str(a), "--emit-edges", str(ea)], capsys)[0] == 0
        assert run(args + ["-o", str(b), "--emit-edges", str(eb)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert ea.read_bytes() == eb.read_bytes()

    @given(
        seed=st.integers(0, 2**64 - 1),
        beta=st.integers(1, 4),
        family=st.sampled_from(["bernoulli", "exponential"]),
        x=st.floats(0.05, 1.0),
        theta_max=st.integers(1, 16),
        n=st.integers(6, 2000),
    )
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_same_seed_json_is_byte_identical(
        self, seed, beta, family, x, theta_max, n, capsys
    ):
        flag = "--p" if family == "bernoulli" else "--q"
        args = ["simulate", "--n", str(n), "--beta", str(beta), "--family", family]
        args += [flag, repr(x), "--theta-max", str(theta_max), "--seed", str(seed)]
        # stderr carries the wall time, so only the report is compared
        code, first, _ = run(args, capsys)
        assert code == 0
        assert json.loads(first)["seeds"] == [seed]
        assert run(args, capsys)[:2] == (0, first)

    def test_ingestion_triangle(self, tmp_path, capsys):
        ep = tmp_path / "e.txt"
        qp = tmp_path / "q.txt"
        ep.write_text("0 1\n1 2\n2 0\n")
        qp.write_text("0 0\n1 0\n2 5\n")
        out = tmp_path / "rep.json"
        code, _, _ = run(
            ["simulate", "--input", str(ep), "--qualities", str(qp), "-o", str(out)],
            capsys,
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["fractions"]["quality_mean"] == pytest.approx(
            0.666667, abs=1e-6
        )
        assert payload["fractions"]["quality_median"] == 0.0

    def test_parse_error_exits_4_and_no_partial_output(self, tmp_path, capsys):
        ep = tmp_path / "e.txt"
        qp = tmp_path / "q.txt"
        ep.write_text("0 1\n7 7\n")
        qp.write_text("0 0\n1 0\n7 0\n")
        out = tmp_path / "rep.json"
        code, _, err = run(
            ["simulate", "--input", str(ep), "--qualities", str(qp), "-o", str(out)],
            capsys,
        )
        assert code == 4
        assert "line 2" in err
        assert not out.exists()

    def test_missing_growth_flags_exit_2(self, capsys):
        code, _, _ = run(["simulate", "--mode", "qpa", "--n", "100"], capsys)
        assert code == 2

    @pytest.mark.parametrize("seed, replicas", [(-1, 1), (2**64, 1), (2**64 - 2, 3)])
    def test_out_of_range_seed_exits_2(self, seed, replicas, capsys):
        argv = ["simulate", "--n", "100", "--beta", "2", "--q", "0.5", "--theta-max", "4"]
        code, _, err = run(argv + ["--seed", str(seed), "--replicas", str(replicas)], capsys)
        assert code == 2
        assert err.startswith("error:") and "seed" in err

    def test_seed_span_checked_before_growth(self, monkeypatch, capsys):
        # the last of three seeds is 2**64: nothing may be grown first
        from qpanet import simulate

        calls = []
        monkeypatch.setattr(simulate, "grow_qpa", lambda *a: calls.append(a))
        argv = ["simulate", "--n", "100", "--beta", "2", "--q", "0.5", "--theta-max", "4"]
        code, _, err = run(argv + ["--seed", str(2**64 - 2), "--replicas", "3"], capsys)
        assert code == 2
        assert err.startswith("error:")
        assert calls == []

    def test_threads_flag_rejected(self, capsys):
        # simulation is single-threaded, so the flag is not accepted
        argv = ["simulate", "--n", "100", "--beta", "2", "--q", "0.5", "--theta-max", "4"]
        assert run(argv, capsys)[0] == 0
        code, _, err = run(argv + ["--threads", "2"], capsys)
        assert code == 2
        assert "--threads" in err


class TestNnTableCommand:
    def test_dump_and_normalization(self, tmp_path, capsys):
        out = tmp_path / "nn.csv"
        code, _, _ = run(
            [
                "nn-table",
                "--beta",
                "2",
                "--family",
                "bernoulli",
                "--p",
                "1",
                "--theta-max",
                "8",
                "--k",
                "2",
                "--theta",
                "0",
                "-o",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        tail = float([ln for ln in lines if ln.startswith("# tail_mass=")][0].split("=")[1])
        header_at = lines.index("ell,phi,prob")
        total = sum(float(ln.split(",")[2]) for ln in lines[header_at + 1 :])
        assert total + tail == pytest.approx(1.0, abs=1e-6)

    def test_k_below_beta_exits_2(self, capsys):
        code, _, _ = run(
            [
                "nn-table",
                "--beta",
                "2",
                "--family",
                "bernoulli",
                "--p",
                "1",
                "--theta-max",
                "8",
                "--k",
                "1",
                "--theta",
                "0",
            ],
            capsys,
        )
        assert code == 2


    def test_k_past_degree_cap_exits_2(self, capsys):
        # the march would allocate weights over k columns; past the joint
        # table's degree cap the command refuses before building anything
        code, _, err = run(
            [
                "nn-table",
                "--beta",
                "2",
                "--family",
                "bernoulli",
                "--p",
                "1",
                "--theta-max",
                "8",
                "--k",
                "100001",
                "--theta",
                "0",
            ],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:")

    def test_l_max_below_beta_exits_2(self, tmp_path, capsys):
        # no neighbor degree at or below --l-max: refused, and no table written
        out = tmp_path / "nn.csv"
        argv = ["nn-table", "--beta", "8", "--family", "exponential", "--q", "0.5"]
        argv += ["--theta-max", "4", "--k", "8", "--theta", "0", "--l-max", "5"]
        code, _, err = run(argv + ["-o", str(out)], capsys)
        assert code == 2
        assert err.startswith("error:") and "l_max = 5 below beta = 8" in err
        assert not out.exists()


class TestValidateCommand:
    def test_quick_passes_fast(self, capsys):
        import time

        t0 = time.monotonic()
        code, out, _ = run(["validate", "--quick"], capsys)
        elapsed = time.monotonic() - t0
        assert code == 0
        assert "joint normalization" in out and "PASS" in out
        assert elapsed < 300.0


class TestHelp:
    @pytest.mark.parametrize("cmd", ["sweep", "simulate", "validate", "nn-table"])
    def test_help_lists_flags(self, cmd, capsys):
        code, out, _ = run([cmd, "--help"], capsys)
        assert code == 0
        assert "--" in out


class TestThreadsDefault:
    def test_env_var_default(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("QPANET_THREADS", "2")
        out = tmp_path / "out.csv"
        code, _, _ = run(
            [
                "sweep",
                "--family",
                "exponential",
                "--q",
                "0.5,1.5",
                "--beta",
                "2",
                "--theta-max",
                "4",
                "-o",
                str(out),
            ],
            capsys,
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 3


class TestThreadsEnv:
    SWEEP = ["sweep", "--family", "exponential", "--q", "0.5", "--beta", "2", "--theta-max", "4"]

    def _threads_used(self, capsys, monkeypatch, extra=()):
        from qpanet import measures

        seen = []

        def fake_sweep(*args, threads, **kwargs):
            seen.append(threads)
            return []

        monkeypatch.setattr(measures, "sweep", fake_sweep)
        code, _, err = run(self.SWEEP + list(extra), capsys)
        return code, err, seen

    def test_qpanet_threads_sets_default(self, capsys, monkeypatch):
        monkeypatch.setenv("QPANET_THREADS", "3")
        code, _, seen = self._threads_used(capsys, monkeypatch)
        assert (code, seen) == (0, [3])

    def test_flag_wins_over_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QPANET_THREADS", "3")
        assert self._threads_used(capsys, monkeypatch, ["--threads", "1"])[2] == [1]

    def test_unset_or_blank_is_one_thread(self, capsys, monkeypatch):
        monkeypatch.delenv("QPANET_THREADS", raising=False)
        assert self._threads_used(capsys, monkeypatch)[2] == [1]
        monkeypatch.setenv("QPANET_THREADS", " ")
        code, _, seen = self._threads_used(capsys, monkeypatch)
        assert (code, seen) == (0, [1])

    @pytest.mark.parametrize("name", ["QPANET_THREADS"])
    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
    def test_bad_value_exits_2(self, name, value, capsys, monkeypatch):
        monkeypatch.setenv(name, value)
        code, err, seen = self._threads_used(capsys, monkeypatch)
        assert code == 2
        assert err.startswith("error:") and name in err
        assert seen == []

    def test_bad_value_ignored_when_flag_given(self, capsys, monkeypatch):
        monkeypatch.setenv("QPANET_THREADS", "abc")
        code, _, seen = self._threads_used(capsys, monkeypatch, ["--threads", "2"])
        assert (code, seen) == (0, [2])
