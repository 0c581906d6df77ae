import json
import os
import warnings
from pathlib import Path

import pytest

from lmopt.cli import SCHEMAS, ConfigError, build_parser, config_hash, main, resolve_config
from lmopt.experiments import RATE_MODES, RATE_OPTIMIZERS, rate_harness
from lmopt.models import FAMILIES, Domain, build_config
from lmopt.problems import StochasticQuadratic


def run_cli(*args):
    return main(list(args))


def artifact(out_dir, prefix, suffix):
    names = [n for n in os.listdir(out_dir) if n.startswith(prefix) and n.endswith(suffix)]
    assert len(names) == 1, f"expected one {prefix}*{suffix}, got {names}"
    return os.path.join(out_dir, names[0])


# Every rule at the largest noise, at two sizes and at gamma 0.05 and 0: some of the
# first block's noise draws overflow, and mostly step 1's est_error fails first. At
# dim 4, SSD's new iterate fails before it, and the Nesterov look-ahead g + beta * d
# (the buffer check) before both.
_LARGEST_NOISE_CASES = [
    (algo, dim, gamma) for algo in SCHEMAS["train"]["optimizer.algo"].choices
    for dim in (32, 4) for gamma in ("0.05", "0")
]
_LARGEST_NOISE = [
    ("train", ["problem.kind=quadratic", "problem.noise=1.7976931348623157e308",
               f"optimizer.algo={algo}", f"problem.dim={dim}", f"optimizer.gamma.value={gamma}"],
     "at step 1 of trial 0: non-finite "
     + {("ssd", 4): "parameters", ("muon_nesterov", 4): "buffer"}.get((algo, dim), "est_error"))
    for algo, dim, gamma in _LARGEST_NOISE_CASES
]
_LARGEST_NOISE_IDS = [
    f"train_largest_noise_{algo}_dim{dim}_gamma{gamma}" for algo, dim, gamma in _LARGEST_NOISE_CASES
]


class TestConfigPlumbing:
    def test_defaults_resolve(self):
        cfg = resolve_config("train", {}, [], None, None)
        assert cfg["optimizer.algo"] == "uscg"
        assert cfg["seed"] == 0

    def test_nested_file_config(self):
        cfg = resolve_config(
            "train", {"optimizer": {"algo": "scg", "gamma": {"value": 0.2}}}, [], None, None
        )
        assert cfg["optimizer.algo"] == "scg"
        assert cfg["optimizer.gamma.value"] == 0.2

    def test_unknown_key_named(self):
        from lmopt.cli import ConfigError

        with pytest.raises(ConfigError, match="unknown key 'optimizer.lr'"):
            resolve_config("train", {"optimizer": {"lr": 0.1}}, [], None, None)

    def test_set_overrides_file(self):
        cfg = resolve_config(
            "train", {"optimizer": {"steps": 10}}, ["optimizer.steps=20"], None, None
        )
        assert cfg["optimizer.steps"] == 20

    def test_bad_choice_rejected(self):
        from lmopt.cli import ConfigError

        with pytest.raises(ConfigError, match="optimizer.algo"):
            resolve_config("train", {}, ["optimizer.algo=adam"], None, None)

    def test_list_parsing(self):
        cfg = resolve_config("coord-check", {}, ["widths=8,16,32"], None, None)
        assert cfg["widths"] == [8, 16, 32]

    def test_hash_ignores_out_and_seed(self):
        a = resolve_config("train", {}, [], 1, "/tmp/a")
        b = resolve_config("train", {}, [], 2, "/tmp/b")
        assert config_hash(a) == config_hash(b)
        c = resolve_config("train", {}, ["optimizer.steps=7"], 1, "/tmp/a")
        assert config_hash(a) != config_hash(c)

    def test_help_lists_every_config_key(self, capsys):
        # doc-sync: the keys the validator accepts are exactly the keys --help shows
        for command, schema in SCHEMAS.items():
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--help"])
            text = capsys.readouterr().out
            for path in schema:
                assert path in text, f"{command} --help is missing {path}"

    def test_help_shows_each_interval(self, capsys):
        for command, schema in SCHEMAS.items():
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--help"])
            lines = capsys.readouterr().out.splitlines()
            for path, field in schema.items():
                line = next(l for l in lines if l.startswith(f"  {path} ("))
                if field.interval is not None:
                    assert f"in {field.interval}," in line, line

    def test_train_help_names_the_mu_and_beta_rows_of_rules(self, capsys):
        from lmopt.cli import _ALGO_BY_NAME
        from lmopt.optim import RULES, Move

        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--help"])
        lines = capsys.readouterr().out.splitlines()
        users = {
            "optimizer.mu": {n for n, a in _ALGO_BY_NAME.items() if RULES[a].move is Move.DECAY},
            "optimizer.beta": {n for n, a in _ALGO_BY_NAME.items() if RULES[a].beta is not None},
        }
        for path, names in users.items():
            assert names
            line = next(l for l in lines if l.startswith(f"  {path} ("))
            listed = line.split("): ", 1)[1].split("(", 1)[1].split(", in ")[0]
            assert set(listed.split(", ")) == names, line

    def test_defaults_lie_in_their_intervals(self):
        for command in SCHEMAS:
            resolve_config(command, {}, [], None, None)


class TestCommands:
    def test_lmo_check_default_passes(self, tmp_path, capsys):
        rc = run_cli("lmo-check", "--out", str(tmp_path), "--set", "trials=20",
                     "--set", "max_dim=16")
        assert rc == 0
        out = capsys.readouterr().out
        assert "spectral" in out and "ok" in out
        csv = artifact(str(tmp_path), "lmo_check", ".csv")
        assert Path(csv).read_text().startswith("# schema=1\n")

    def test_lmo_check_ns_zero_iters_fails(self, tmp_path):
        rc = run_cli(
            "lmo-check", "--out", str(tmp_path),
            "--set", "spectral.backend=newton_schulz",
            "--set", "spectral.iters=0",
            "--set", "trials=20",
        )
        assert rc == 2

    def test_malformed_key_exit_1(self, tmp_path, capsys):
        rc = run_cli("train", "--out", str(tmp_path), "--set", "no.such.key=3")
        assert rc == 1
        assert "no.such.key" in capsys.readouterr().err

    def test_train_writes_artifacts(self, tmp_path):
        rc = run_cli(
            "train", "--out", str(tmp_path),
            "--set", "optimizer.steps=10",
            "--set", "problem.train_size=48",
            "--set", "optimizer.batch_size=24",
        )
        assert rc == 0
        csv = artifact(str(tmp_path), "train", ".csv")
        lines = Path(csv).read_text().splitlines()
        assert lines[0] == "# schema=1"
        assert lines[1].startswith("step,gamma,alpha,loss,")
        assert len(lines) == 2 + 10
        artifact(str(tmp_path), "train", ".jsonl")
        artifact(str(tmp_path), "train", ".checkpoint.json")

    def test_train_zero_gamma_keeps_init(self, tmp_path):
        from lmopt.models import load_model
        from lmopt.linalg import derive_seed
        from lmopt.models import Domain, Activation, build_config, init_model
        import numpy as np

        rc = run_cli(
            "train", "--out", str(tmp_path), "--seed", "3",
            "--set", "optimizer.gamma.kind=constant",
            "--set", "optimizer.gamma.value=0.0",
            "--set", "optimizer.steps=8",
            "--set", "problem.train_size=48",
            "--set", "optimizer.batch_size=24",
        )
        assert rc == 0
        model = load_model(artifact(str(tmp_path), "train", ".checkpoint.json"))
        specs = build_config(Domain.IMAGE, (32, 64, 64, 4), family="recommended",
                             activation=Activation.RELU)
        reference = init_model(specs, derive_seed(3, 1))
        for a, b in zip(model.weights, reference.weights):
            np.testing.assert_array_equal(a, b)

    def test_train_scg_feasible_every_row(self, tmp_path):
        rc = run_cli(
            "train", "--out", str(tmp_path),
            "--set", "optimizer.algo=scg",
            "--set", "optimizer.steps=15",
            "--set", "problem.train_size=48",
            "--set", "optimizer.batch_size=24",
        )
        assert rc == 0
        csv = artifact(str(tmp_path), "train", ".csv")
        rows = [l for l in Path(csv).read_text().splitlines() if not l.startswith("#")][1:]
        assert all(row.endswith(",true") for row in rows)

    def test_train_quadratic_problem(self, tmp_path):
        rc = run_cli(
            "train", "--out", str(tmp_path),
            "--set", "problem.kind=quadratic",
            "--set", "problem.dim=8",
            "--set", "optimizer.steps=20",
        )
        assert rc == 0
        summary = json.loads(Path(artifact(str(tmp_path), "train", ".jsonl")).read_text())
        assert "final_loss" in summary

    def test_train_ssd_divergence_exit_3(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = run_cli(
                "train", "--out", str(tmp_path),
                "--set", "optimizer.algo=ssd",
                "--set", "optimizer.gamma.kind=constant",
                "--set", "optimizer.gamma.value=1.0",
                "--set", "optimizer.steps=200",
                "--set", "model.hidden=16,16",
                "--set", "problem.train_size=64",
                "--set", "optimizer.batch_size=32",
            )
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical failure at step" in err

    def test_train_idx_problem(self, tmp_path):
        import numpy as np
        import struct

        arr = (np.arange(6 * 4 * 4) % 255).astype(np.uint8).reshape(6, 4, 4)
        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        img.write_bytes(struct.pack(">IIII", 0x00000803, 6, 4, 4) + arr.tobytes())
        lab.write_bytes(struct.pack(">II", 0x00000801, 6) + bytes([0, 1, 0, 1, 0, 1]))
        rc = run_cli(
            "train", "--out", str(tmp_path),
            "--set", "problem.kind=idx",
            "--set", f"problem.images={img}",
            "--set", f"problem.labels={lab}",
            "--set", "optimizer.steps=5",
            "--set", "optimizer.batch_size=3",
            "--set", "model.hidden=8",
        )
        assert rc == 0

    def test_coord_check_command(self, tmp_path):
        rc = run_cli(
            "coord-check", "--out", str(tmp_path),
            "--set", "widths=8,16",
            "--set", "samples=2",
            "--set", "input_dim=8",
            "--set", "classes=3",
        )
        assert rc == 0
        csv = artifact(str(tmp_path), "coord_check", ".csv")
        rows = [l for l in Path(csv).read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "width,layer,rms_dpreact"
        assert len(rows) == 1 + 2 * 3

    def test_coord_check_underflowing_step_exit_3(self, tmp_path, capsys):
        # The smallest positive gamma is in range, but its step rounds away, so no
        # preactivation moves and no width ratio exists.
        out = tmp_path / "out"
        rc = run_cli(
            "coord-check", "--out", str(out),
            "--set", "gamma=5e-324",
            "--set", "widths=8,16",
            "--set", "samples=1",
            "--set", "input_dim=8",
            "--set", "classes=3",
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical failure at step 1" in err
        assert "layer 1's preactivation did not move at width 8" in err
        assert "Traceback" not in err
        assert not out.exists() or os.listdir(out) == []

    def test_rate_overflowing_param_norm_exit_3(self, tmp_path, capsys):
        # The smallest positive rho is in range, but ||x|| / rho overflows float64, so
        # the recorded param_norm of the first iterate is infinite.
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli(
                "rate", "--out", str(out),
                "--set", "rho=5e-324",
                "--set", "n_list=4,8",
                "--set", "trials=3",
            )
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical failure at step 1 of trial 0: non-finite param_norm" in err
        assert "Traceback" not in err
        assert not out.exists() or os.listdir(out) == []

    @pytest.mark.parametrize(
        "command, settings",
        [
            ("train", ["optimizer.steps=5"]),
            ("sweep", ["widths=8", "gamma.count=1", "epochs=1", "problem.train_size=48",
                       "problem.test_size=24", "batch_size=24"]),
        ],
    )
    def test_huge_feature_noise_runs_without_warning(self, tmp_path, command, settings):
        # The features are built at a power-of-two scale, so their RMS rescale does
        # not overflow (the library tests check that they stay finite and nonzero).
        args = [a for setting in settings for a in ("--set", setting)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli(command, "--out", str(tmp_path), "--set", "problem.noise=1e300", *args)
        assert rc == 0

    def test_rate_overflowing_est_error_exit_3(self, tmp_path, capsys):
        # Every gradient is finite, but ||d^k - grad f(x^k)|| overflows float64 at a
        # noise level this large, so the recorded est_error of step 1 is infinite.
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli(
                "rate", "--out", str(out),
                "--set", "problem.noise=1e306",
                "--set", "probe=error_decay",
                "--set", "n_list=4,8",
                "--set", "trials=2",
                "--set", "probe_n=8",
                "--set", "probe_trials=2",
            )
        assert rc == 3
        captured = capsys.readouterr()
        assert "numerical failure at step 1 of trial 0: non-finite est_error" in captured.err
        assert "Traceback" not in captured.err
        assert "slope" not in captured.out
        assert not out.exists() or os.listdir(out) == []

    def test_rate_overflowing_probe_error_exit_3(self, tmp_path, capsys):
        # Each recorded est_error is finite, but its square overflows float64 in the
        # probe's mean; the rate harness has run by then, and nothing is written.
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli(
                "rate", "--out", str(out),
                "--set", "optimizer=scg",
                "--set", "problem.noise=1e154",
                "--set", "n_list=20,40",
                "--set", "trials=2",
                "--set", "probe=error_decay",
                "--set", "probe_n=16",
                "--set", "probe_trials=2",
            )
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical failure at step 1: non-finite mean squared est_error" in err
        assert "Traceback" not in err and "Warning" not in err
        assert not out.exists() or os.listdir(out) == []

    def test_rate_overflowing_doubled_noise_exit_3(self, tmp_path, capsys):
        # Constant mode runs the problem's noise level and then double it; at a tiny
        # alpha the first run stays finite, and the doubled level overflows float64.
        out = tmp_path / "out"
        rc = run_cli(
            "rate", "--out", str(out),
            "--set", "mode=constant",
            "--set", "problem.noise=1e308",
            "--set", "alpha=1e-300",
            "--set", "n_list=4",
            "--set", "trials=1",
            "--set", "problem.dim=4",
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical failure at step 1" in err and "noise level" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "settings, where",
        [
            (["optimizer=scg", "n_list=20,40"], "at horizon n=20"),
            (["optimizer=scg", "mode=constant", "n_list=40"], "at noise level 1.0"),
        ],
        ids=["vanishing", "constant"],
    )
    def test_rate_zero_criticality_exit_3(self, tmp_path, capsys, settings, where):
        # At a radius this small every recorded gap underflows to zero, so the mean
        # criticality has no log-log slope (vanishing) or plateau ratio (constant).
        out = tmp_path / "out"
        args = [a for setting in settings for a in ("--set", setting)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli("rate", "--out", str(out), "--set", "rho_constrained=1e-300",
                         "--set", "trials=2", *args)
        assert rc == 3
        captured = capsys.readouterr()
        assert f"mean criticality 0.0 {where} is not positive" in captured.err
        assert "Traceback" not in captured.err and "slope" not in captured.out
        assert not out.exists() or os.listdir(out) == []

    def test_rate_largest_radius_exit_3_without_warning(self, tmp_path, capsys):
        # The lmo at the largest finite radius is finite; only the recorded gap
        # overflows, which the exit-3 message reports without a raw warning first.
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli("rate", "--out", str(out), "--set", "rho=1.7976931348623157e308",
                         "--set", "n_list=20,40", "--set", "trials=2")
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure at step") and "Warning" not in err
        assert not out.exists() or os.listdir(out) == []

    @pytest.mark.parametrize("optimizer", ["uscg", "scg"])
    @pytest.mark.parametrize("rho", ["8.988465674311580e307", "1e308", "1.7976931348623157e308"])
    def test_rate_radius_whose_d2_overflows_exit_1(self, tmp_path, capsys, optimizer, rho):
        # The reported constant D2 = 2 * rho_constrained must be finite, so a radius
        # above half of float64's largest value is outside the key's interval.
        out = tmp_path / "out"
        rc = run_cli("rate", "--out", str(out), "--set", f"optimizer={optimizer}",
                     "--set", f"rho_constrained={rho}", "--set", "n_list=2,3",
                     "--set", "trials=1")
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: key 'rho_constrained' must be in [")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, settings, what",
        [
            # Noiseless, only step 2 of the two-step probe has a positive error, so
            # the decay probe has no slope to fit.
            ("rate", ["problem.noise=0", "n_list=4,8", "trials=1", "probe=error_decay",
                      "probe_n=2", "probe_trials=1"],
             "at step 2: 1 of 2 steps have a positive mean squared est_error"),
            # The SCG start on the largest radii fits in float64; its gap does not.
            ("train", ["problem.kind=quadratic", "optimizer.algo=scg", "problem.rho=1e308"],
             "at step 1 of trial 0: non-finite fw_gap"),
            ("rate", ["optimizer=scg", "rho_constrained=8.988465674311579e307"],
             "at step 1 of trial 0: non-finite fw_gap"),
            # a finite last iterate whose loss overflows
            ("train", ["problem.kind=quadratic", "optimizer.steps=1", "problem.dim=7",
                       "problem.rho=3.050581868614393e307", "problem.noise=1.1",
                       "problem.conditioning=2.553600595270676", "optimizer.gamma.kind=constant",
                       "optimizer.gamma.value=0.13790974218011767",
                       "optimizer.alpha.value=0.8584040408398259", "seed=-9960"],
             "at step 1 of trial 0: non-finite final loss"),
            # a uSCG step on the largest radii whose new iterate overflows
            ("rate", ["mode=constant", "n_list=5", "trials=4", "problem.dim=4",
                      "alpha=4.9320667995579805e-05", "problem.noise=4.184891738113516e307",
                      "problem.conditioning=4.184891738113516e307",
                      "rho=1.6446375770106688e308", "seed=-1195"],
             "at step 1 of trial 0: non-finite est_error"),
            # every step's grad_dual_norm is finite, but their mean over the trials is not
            ("rate", ["mode=constant", "n_list=1", "trials=5", "problem.dim=6",
                      "problem.noise=1.4065012811308932", "rho=1.1289453775706068e308",
                      "problem.conditioning=1.6772995014444008e308", "seed=-57199191"],
             "at step 1: mean criticality inf at noise level 1.4065012811308932 is not "
             "positive and finite"),
            # the largest noise on a dim-2 quadratic overflows the gradient sum itself,
            # and then SSD's new iterate
            ("train", ["problem.kind=quadratic", "problem.noise=1.7976931348623157e308",
                       "problem.dim=2", "optimizer.algo=ssd"],
             "at step 1 of trial 0: non-finite parameters"),
            # SSD on scaled relu^2 overflows the forward pass, and then the probe
            *(("train", ["problem.dim=2", "problem.classes=2", "problem.clusters=1",
                         f"problem.noise={noise}", f"problem.train_size={n}",
                         f"problem.test_size={n_test}", f"model.hidden={hidden}",
                         "model.domain=one_hot", "model.family=colnorm",
                         "model.activation=scaled_relu2", "optimizer.algo=ssd",
                         "optimizer.steps=3", f"optimizer.batch_size={batch}",
                         "optimizer.gamma.kind=constant", "optimizer.gamma.value=1.0",
                         "optimizer.alpha.value=1.0", "seed=6564"], f"at step 3: {what}")
              for noise, n, n_test, hidden, batch, what in (
                  ("0.0", 2, 0, "6,4,3", 1, "non-finite loss"),
                  ("1.0", 4, 4, "5,4,3", 2, "non-finite probe gradient"))),
            *_LARGEST_NOISE,
        ],
        ids=["decay_probe_without_slope", "train_scg_largest_radius",
             "rate_scg_largest_radius", "train_final_loss_overflow", "rate_uscg_step_overflow",
             "rate_mean_criticality_overflow", "train_gradient_sum_overflow",
             "train_ssd_forward_overflow", "train_ssd_probe_overflow", *_LARGEST_NOISE_IDS],
    )
    def test_numerical_failure_exit_3_without_warning(
        self, tmp_path, capsys, command, settings, what
    ):
        out = tmp_path / "out"
        args = [a for setting in settings for a in ("--set", setting)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli(command, "--out", str(out), *args)
        assert rc == 3
        err = capsys.readouterr().err
        assert f"numerical failure {what}" in err
        assert "Traceback" not in err and "Warning" not in err
        assert not out.exists() or os.listdir(out) == []

    def test_run_writer_refuses_nan(self, tmp_path):
        from lmopt.cli import _write_run

        out = tmp_path / "out"
        cfg = {"out": str(out), "seed": 0}
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="not JSON compliant"):
                _write_run("rate", cfg, ("n",), ([1],), {"slope": bad})
            assert not out.exists()
        base = _write_run("rate", cfg, ("n",), ([1],), {"slope": 1.0})
        with open(base + ".jsonl", encoding="utf-8") as fh:
            assert json.loads(fh.read()) == {"command": "rate", "config": cfg, "slope": 1.0}

    def test_train_writes_nothing_before_its_record_is_encoded(self, tmp_path, monkeypatch):
        from lmopt import cli

        dumps = cli.json.dumps

        def refuse_the_record(obj, **kwargs):
            if isinstance(obj, dict) and "command" in obj:
                raise ValueError("record refused")
            return dumps(obj, **kwargs)

        monkeypatch.setattr(cli.json, "dumps", refuse_the_record)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match="record refused"):
            run_cli("train", "--out", str(out), "--set", "optimizer.steps=2",
                    "--set", "problem.train_size=16", "--set", "optimizer.batch_size=8")
        assert not out.exists()

    @pytest.mark.parametrize("where", ["name_too_long", "nul_byte"])
    def test_unusable_out_exit_1(self, tmp_path, capsys, monkeypatch, where):
        monkeypatch.chdir(tmp_path)
        if where == "name_too_long":  # accepted up front, refused by the file system
            args = ["--out", "a" * 300]
        else:  # a JSON string may hold a NUL, which no path can
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"out": "nul\u0000dir"}))
            args = ["--config", str(config)]
        rc = run_cli("lmo-check", "--set", "trials=2", "--set", "max_dim=2", *args)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: key 'out'") and "Traceback" not in err
        assert os.listdir(tmp_path) == ([] if where == "name_too_long" else ["config.json"])

    def test_seed_that_makes_artifact_names_too_long_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = run_cli("lmo-check", "--out", "o", "--set", "trials=1", "--set", "max_dim=2",
                     "--seed", str(10**300))
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: key 'seed'")
        assert "Traceback" not in captured.err and captured.out == ""
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command, settings", [
        ("lmo-check", ["trials=1", "max_dim=2"]),
        ("train", ["optimizer.steps=2", "optimizer.batch_size=4", "problem.dim=3",
                   "problem.classes=2", "problem.train_size=8", "problem.test_size=2",
                   "model.hidden=3"]),
    ])
    def test_longest_accepted_seed_writes_every_artifact(self, tmp_path, command, settings):
        # The seed with one digit more than the longest accepted one is refused by name,
        # and the longest accepted one names files the file system takes.
        for digits in range(1, os.pathconf(tmp_path, "PC_NAME_MAX") + 1):
            try:
                resolve_config(command, {}, settings, 10**digits, str(tmp_path))
            except ConfigError as exc:
                assert str(exc).startswith("config error: key 'seed'")
                break
        else:
            pytest.fail("no seed is refused, however long its artifact names")
        seed = 10**digits - 1
        assert run_cli(command, "--out", str(tmp_path), "--seed", str(seed),
                       *[arg for s in settings for arg in ("--set", s)]) == 0
        suffixes = {".csv", ".jsonl"} | ({".checkpoint.json"} if command == "train" else set())
        names = os.listdir(tmp_path)
        assert {n[n.index("."):] for n in names} == suffixes
        assert all(n.endswith(f"_{seed}" + n[n.index("."):]) for n in names)

    @pytest.mark.parametrize(
        "command, settings, keys",
        [
            ("lmo-check", ["trials=2", "max_dim=4"], {"kinds", "violations"}),
            ("train", ["optimizer.steps=2", "problem.train_size=16", "optimizer.batch_size=8"],
             {"steps", "final_loss", "final_param_norm", "checkpoint"}),
            ("train", ["problem.kind=quadratic", "problem.dim=4", "optimizer.steps=2"],
             {"steps", "final_loss", "final_param_norm"}),
            ("coord-check", ["widths=4,8", "samples=1", "input_dim=4", "classes=2"],
             {"max_min_ratio_per_layer"}),
            ("sweep", ["widths=4", "gamma.count=1", "epochs=1", "problem.train_size=16",
                       "problem.test_size=8", "batch_size=8"],
             {"best_gamma", "max_log2_spread"}),
            ("rate", ["n_list=4,8", "trials=1"], {"mode", "slope", "plateau_ratio", "constants"}),
            ("rate", ["n_list=4,8", "trials=1", "probe=error_decay", "probe_n=8",
                      "probe_trials=1"],
             {"mode", "slope", "plateau_ratio", "constants", "error_decay_slope"}),
        ],
        ids=["lmo-check", "train", "train-quadratic", "coord-check", "sweep", "rate",
             "rate-probe"],
    )
    def test_jsonl_summary_keys(self, tmp_path, command, settings, keys):
        args = [a for setting in settings for a in ("--set", setting)]
        assert run_cli(command, "--out", str(tmp_path), *args) == 0
        prefix = command.replace("-", "_")
        lines = Path(artifact(str(tmp_path), prefix, ".jsonl")).read_text().splitlines()
        assert len(lines) == 1
        summary = json.loads(lines[0])
        assert set(summary) == {"command", "config"} | keys
        assert summary["command"] == command
        assert summary["config"] == resolve_config(command, {}, settings, None, str(tmp_path))

    def test_sweep_command(self, tmp_path):
        rc = run_cli(
            "sweep", "--out", str(tmp_path),
            "--set", "widths=8,16",
            "--set", "gamma.count=2",
            "--set", "epochs=1",
            "--set", "problem.train_size=48",
            "--set", "problem.test_size=24",
            "--set", "batch_size=24",
        )
        assert rc == 0
        summary = json.loads(Path(artifact(str(tmp_path), "sweep", ".jsonl")).read_text())
        assert set(summary["best_gamma"]) == {"8", "16"}

    def test_rate_command_constants_header(self, tmp_path):
        rc = run_cli(
            "rate", "--out", str(tmp_path),
            "--set", "n_list=20,40",
            "--set", "trials=2",
        )
        assert rc == 0
        csv = artifact(str(tmp_path), "rate", ".csv")
        head = Path(csv).read_text().splitlines()[:10]
        joined = "\n".join(head)
        for key in ("L=", "sigma=", "zeta=", "rho2=", "D2="):
            assert key in joined

    @pytest.mark.parametrize(
        "command, setting, key",
        [
            ("sweep", "widths=", "widths"),
            ("coord-check", "widths=", "widths"),
            ("rate", "n_list=1", "n_list"),
            ("rate", "n_list=100,100", "n_list"),
            ("rate", "trials=0", "trials"),
            ("coord-check", "samples=0", "samples"),
        ],
    )
    def test_degenerate_input_exit_1(self, tmp_path, capsys, command, setting, key):
        rc = run_cli(command, "--out", str(tmp_path), "--set", setting)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"'{key}'" in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "setting, key",
        [
            ("probe_trials=0", "probe_trials"),
            ("probe_n=1", "probe_n"),
            ("probe_n=0", "probe_n"),
        ],
    )
    def test_error_decay_probe_bad_input_exit_1(self, tmp_path, capsys, setting, key):
        rc = run_cli(
            "rate", "--out", str(tmp_path),
            "--set", "n_list=20,40",
            "--set", "trials=1",
            "--set", "probe=error_decay",
            "--set", setting,
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"'{key}'" in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == []

    def test_rate_constant_mode_single_horizon(self, tmp_path):
        rc = run_cli(
            "rate", "--out", str(tmp_path),
            "--set", "mode=constant",
            "--set", "n_list=40",
            "--set", "trials=1",
        )
        assert rc == 0

    def test_light_mode_vanishing_alpha_matches_uscg(self, tmp_path):
        import numpy as np

        def columns(algo):
            out = tmp_path / algo
            rc = run_cli(
                "train", "--out", str(out),
                "--set", f"optimizer.algo={algo}",
                "--set", "optimizer.alpha.kind=vanishing",
            )
            assert rc == 0
            csv = artifact(str(out), "train", ".csv")
            rows = [l.split(",") for l in Path(csv).read_text().splitlines()[2:]]
            # the loss, grad_dual_norm, fw_gap, param_norm and est_error columns
            return np.array([[float(v) for v in row[3:8]] for row in rows])

        np.testing.assert_allclose(columns("uscg_light"), columns("uscg"), rtol=1e-10, atol=0)

    @pytest.mark.parametrize(
        "settings, key",
        [
            (["optimizer.steps=0"], "optimizer.steps"),
            (["optimizer.batch_size=0"], "optimizer.batch_size"),
            (["optimizer.gamma.value=2"], "optimizer.gamma.value"),
            (["optimizer.gamma.value=-0.1"], "optimizer.gamma.value"),
            (["optimizer.alpha.value=0"], "optimizer.alpha.value"),
            (["optimizer.alpha.value=nan"], "optimizer.alpha.value"),
            (["optimizer.gamma.kind=constant_then_linear",
              "optimizer.gamma.warmdown_frac=2"], "optimizer.gamma.warmdown_frac"),
            (["model.hidden="], "model.hidden"),
            (["model.hidden=0"], "model.hidden"),
            (["model.hidden=16,-4"], "model.hidden"),
        ],
    )
    def test_train_out_of_range_exit_1(self, tmp_path, capsys, settings, key):
        args = [a for setting in settings for a in ("--set", setting)]
        rc = run_cli("train", "--out", str(tmp_path / "out"), *args)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"'{key}'" in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize(
        "command, settings, key",
        [
            ("train", ["problem.dim=0"], "problem.dim"),
            ("train", ["problem.classes=1"], "problem.classes"),
            ("train", ["problem.train_size=0"], "problem.train_size"),
            ("train", ["problem.test_size=-1"], "problem.test_size"),
            ("train", ["problem.clusters=0"], "problem.clusters"),
            ("train", ["problem.kind=quadratic", "problem.rho=0"], "problem.rho"),
            ("train", ["problem.kind=quadratic", "problem.conditioning=0.5"],
             "problem.conditioning"),
            ("train", ["problem.kind=quadratic", "problem.noise=-1"], "problem.noise"),
            ("train", ["problem.kind=idx", "problem.limit=-1"], "problem.limit"),
            ("lmo-check", ["max_dim=0"], "max_dim"),
            ("lmo-check", ["trials=0"], "trials"),
            ("lmo-check", ["kinds=spectral,nope"], "kinds"),
            ("coord-check", ["input_dim=0"], "input_dim"),
            ("coord-check", ["classes=0"], "classes"),
            ("coord-check", ["gamma=-1"], "gamma"),
            ("coord-check", ["gamma=0"], "gamma"),
            ("sweep", ["batch_size=0"], "batch_size"),
            ("sweep", ["alpha=0"], "alpha"),
            ("sweep", ["depth=1"], "depth"),
            ("sweep", ["gamma.start=0.5", "gamma.factor=2", "gamma.count=3"], "gamma.start"),
            ("sweep", ["gamma.count=3000"], "gamma.start"),
            # the grid's second stepsize, 0.5 * 5e-324, underflows to 0
            ("sweep", ["gamma.start=0.5", "gamma.factor=5e-324", "gamma.count=2"],
             "gamma.start"),
            # rounding puts an scg start on a subnormal radius off its ball
            ("train", ["problem.kind=quadratic", "optimizer.algo=scg", "problem.dim=4",
                       "problem.rho=1e-320"], "problem.rho"),
            ("rate", ["optimizer=scg", "problem.dim=1", "rho_constrained=5e-324"],
             "rho_constrained"),
            ("rate", ["problem.dim=0"], "problem.dim"),
            ("rate", ["rho=0"], "rho"),
            ("rate", ["mode=constant", "n_list=40", "alpha=0"], "alpha"),
            ("rate", ["problem.noise=nan"], "problem.noise"),
        ],
    )
    def test_declared_range_exit_1(self, tmp_path, capsys, command, settings, key):
        args = [a for setting in settings for a in ("--set", setting)]
        rc = run_cli(command, "--out", str(tmp_path / "out"), *args)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and f"'{key}'" in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == []

    def test_sweep_grid_top_names_both_keys(self, tmp_path, capsys):
        rc = run_cli("sweep", "--out", str(tmp_path), "--set", "gamma.start=0.5",
                     "--set", "gamma.factor=2", "--set", "gamma.count=3")
        assert rc == 1
        err = capsys.readouterr().err
        assert "'gamma.start'" in err and "'gamma.factor'" in err and "got 2.0" in err

    def test_sweep_grid_top_at_one_runs(self, tmp_path):
        rc = run_cli(
            "sweep", "--out", str(tmp_path),
            "--set", "gamma.start=0.5", "--set", "gamma.factor=2", "--set", "gamma.count=2",
            "--set", "widths=4", "--set", "epochs=1", "--set", "problem.train_size=16",
            "--set", "problem.test_size=8", "--set", "batch_size=8",
        )
        assert rc == 0

    def test_json_infinity_for_int_exit_1(self, tmp_path, capsys):
        conf = tmp_path / "conf.json"
        conf.write_text('{"optimizer": {"steps": Infinity}}')
        rc = run_cli("train", "--config", str(conf), "--out", str(tmp_path / "out"))
        assert rc == 1
        assert "'optimizer.steps'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, conf, key",
        [
            ("lmo-check", {"trials": 2.7}, "trials"),
            ("coord-check", {"widths": [8, 2.5]}, "widths"),
            ("train", {"optimizer": {"gamma": {"value": True}}}, "optimizer.gamma.value"),
            ("rate", {"problem": {"noise": False}}, "problem.noise"),
        ],
    )
    def test_json_number_of_wrong_kind_exit_1(self, tmp_path, capsys, command, conf, key):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps(conf))
        rc = run_cli(command, "--config", str(path), "--out", str(tmp_path / "out"))
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error") and f"'{key}'" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_json_integral_number_for_int_accepted(self):
        cfg = resolve_config("lmo-check", {"trials": 3.0, "max_dim": 2}, [], None, None)
        assert cfg["trials"] == 3 and isinstance(cfg["trials"], int)

    @pytest.mark.parametrize("where", ["empty", "file", "under_file"])
    def test_out_not_a_directory_exit_1(self, tmp_path, capsys, where):
        blocker = tmp_path / "blocker"
        blocker.write_text("keep")
        out = {"empty": "", "file": str(blocker), "under_file": str(blocker / "sub")}[where]
        rc = run_cli("lmo-check", "--out", out, "--set", "trials=1", "--set", "max_dim=2")
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error") and "'out'" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""  # rejected before the checks run
        assert os.listdir(tmp_path) == ["blocker"] and blocker.read_text() == "keep"

    def test_out_made_when_missing(self, tmp_path):
        out = tmp_path / "a" / "b"
        rc = run_cli("lmo-check", "--out", str(out), "--set", "trials=1", "--set", "max_dim=2")
        assert rc == 0
        artifact(str(out), "lmo_check", ".csv")

    def test_coord_check_prints_plain_ratios(self, tmp_path, capsys):
        rc = run_cli("coord-check", "--out", str(tmp_path), "--set", "widths=4,8",
                     "--set", "samples=1", "--set", "input_dim=4", "--set", "classes=2")
        assert rc == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("per-layer max/min ratios: {1: ")
        assert "np." not in last

    @pytest.mark.parametrize("setting", ["optimizer.mu=2", "optimizer.mu=-0.5",
                                         "optimizer.beta=1.0", "optimizer.beta=-0.5"])
    @pytest.mark.parametrize("name", SCHEMAS["train"]["optimizer.algo"].choices)
    def test_rule_parameter_range_follows_the_rule_table(self, tmp_path, capsys, name,
                                                          setting):
        from lmopt.cli import _ALGO_BY_NAME
        from lmopt.optim import RULES, Move

        row = RULES[_ALGO_BY_NAME[name]]
        key = setting.partition("=")[0]
        used = row.move is Move.DECAY if key == "optimizer.mu" else row.beta is not None
        rc = run_cli(
            "train", "--out", str(tmp_path / "out"),
            "--set", f"optimizer.algo={name}",
            "--set", "optimizer.steps=2",
            "--set", "problem.train_size=16",
            "--set", "optimizer.batch_size=8",
            "--set", setting,
        )
        err = capsys.readouterr().err
        if not used:  # a rule that does not take the parameter ignores it
            assert rc == 0
            return
        interval = "[0, 1]" if key == "optimizer.mu" else "[0, 1)"
        assert rc == 1
        assert err.startswith(f"config error: key '{key}' must be in {interval} for {name}")
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("missing", ["images", "labels"])
    def test_train_idx_missing_file_exit_1(self, tmp_path, capsys, missing):
        import struct

        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        img.write_bytes(struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(8))
        lab.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes([0, 1]))
        gone = tmp_path / f"gone_{missing}.idx"
        paths = {"images": img, "labels": lab, missing: gone}
        rc = run_cli(
            "train", "--out", str(tmp_path / "out"),
            "--set", "problem.kind=idx",
            "--set", f"problem.images={paths['images']}",
            "--set", f"problem.labels={paths['labels']}",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(gone) in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_train_idx_malformed_file_exit_1(self, tmp_path, capsys):
        img = tmp_path / "img.idx"
        img.write_bytes(b"\x00\x00")
        rc = run_cli(
            "train", "--out", str(tmp_path / "out"),
            "--set", "problem.kind=idx",
            "--set", f"problem.images={img}",
            "--set", f"problem.labels={img}",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error") and str(img) in err
        assert not (tmp_path / "out").exists()

    def test_train_idx_header_past_int64_exit_1(self, tmp_path, capsys):
        import struct

        img = tmp_path / "img.idx"
        lab = tmp_path / "lab.idx"
        img.write_bytes(struct.pack(">IIII", 0x00000803, 2**31, 2**31, 4) + bytes(10))
        lab.write_bytes(struct.pack(">II", 0x00000801, 2) + bytes([0, 1]))
        rc = run_cli(
            "train", "--out", str(tmp_path / "out"),
            "--set", "problem.kind=idx",
            "--set", f"problem.images={img}",
            "--set", f"problem.labels={lab}",
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: unexpected end of file at offset 26")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_config_file_plus_override(self, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"optimizer": {"steps": 6}, "problem": {"train_size": 48}}))
        rc = run_cli(
            "train", "--config", str(conf), "--out", str(tmp_path),
            "--set", "optimizer.steps=4",
            "--set", "optimizer.batch_size=24",
        )
        assert rc == 0
        csv = artifact(str(tmp_path), "train", ".csv")
        rows = [l for l in Path(csv).read_text().splitlines() if not l.startswith("#")][1:]
        assert len(rows) == 4  # --set beats the file

    def test_unreadable_config_exit_1(self, tmp_path, capsys):
        rc = run_cli("train", "--config", str(tmp_path / "missing.json"))
        assert rc == 1
        assert "config error" in capsys.readouterr().err


class TestDeterminism:
    def _run_twice(self, tmp_path, *args):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert run_cli(*args, "--out", out1) == 0
        assert run_cli(*args, "--out", out2) == 0
        csv1 = [n for n in os.listdir(out1) if n.endswith(".csv")][0]
        assert csv1 in os.listdir(out2)
        return (
            Path(os.path.join(out1, csv1)).read_bytes(),
            Path(os.path.join(out2, csv1)).read_bytes(),
        )

    def test_train_csv_byte_identical(self, tmp_path):
        a, b = self._run_twice(
            tmp_path, "train", "--seed", "9",
            "--set", "optimizer.steps=12",
            "--set", "problem.train_size=48",
            "--set", "optimizer.batch_size=24",
        )
        assert a == b

    def test_lmo_check_csv_byte_identical(self, tmp_path):
        a, b = self._run_twice(
            tmp_path, "lmo-check", "--seed", "9", "--set", "trials=10",
            "--set", "max_dim=12",
        )
        assert a == b


# Each choice list has one owner, the library module that checks it; the CLI field
# reads that tuple. The last entry is the library's message for the name "nope".
_CHOICE_OWNERS = [
    ("train", "model.family", FAMILIES, "unknown config family 'nope'"),
    ("rate", "optimizer", RATE_OPTIMIZERS, "optimizer must be 'uscg' or 'scg', got 'nope'"),
    ("rate", "mode", RATE_MODES, "mode must be 'vanishing' or 'constant', got 'nope'"),
]


def _library_call(key, value):
    if key == "model.family":
        return build_config(Domain.IMAGE, (4, 3, 2), family=value)
    choices = {"optimizer": "uscg", "mode": "vanishing", key: value}
    return rate_harness(n_list=(4, 8), problem=StochasticQuadratic(2), trials=1, **choices)


class TestChoiceOwners:
    @pytest.mark.parametrize("command, key, owner, message", _CHOICE_OWNERS)
    def test_field_reads_the_library_tuple(self, command, key, owner, message):
        assert SCHEMAS[command][key].choices is owner

    @pytest.mark.parametrize("command, key, owner, message", _CHOICE_OWNERS)
    def test_every_choice_accepted_by_the_library(self, command, key, owner, message):
        for value in owner:
            _library_call(key, value)

    @pytest.mark.parametrize("command, key, owner, message", _CHOICE_OWNERS)
    def test_name_outside_rejected_by_both(self, tmp_path, capsys, command, key, owner,
                                           message):
        out = tmp_path / "out"
        assert run_cli(command, "--out", str(out), "--set", f"{key}=nope") == 1
        err = capsys.readouterr().err
        assert err == f"config error: key '{key}' must be one of {', '.join(owner)}, got 'nope'\n"
        assert not out.exists()
        with pytest.raises(ValueError) as exc:
            _library_call(key, "nope")
        assert str(exc.value) == message


class TestRejectionsReached:
    """Rejections that only a malformed config file or flag reaches: exit 1, a
    message naming the key or file, no traceback and nothing written."""

    @pytest.mark.parametrize(
        "config, flags, message",
        [
            ('{"model": {"hidden": 64}}', [], "key 'model.hidden' expects int_list, got 64"),
            (None, ["--set", "optimizer.steps"],
             "--set expects key=value, got 'optimizer.steps'"),
            ("{not json", [], "conf.json is not valid JSON"),
            ("[1, 2]", [], "conf.json must hold a JSON object"),
        ],
        ids=["int_list_from_json_number", "set_without_equals", "config_not_json",
             "config_not_an_object"],
    )
    def test_exit_1_names_it(self, tmp_path, capsys, config, flags, message):
        if config is not None:
            (tmp_path / "conf.json").write_text(config)
            flags = ["--config", str(tmp_path / "conf.json"), *flags]
        assert run_cli("train", "--out", str(tmp_path / "out"), *flags) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error") and message in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_idx_limit_keeps_the_first_samples(self, tmp_path):
        import struct

        import numpy as np

        arr = (np.arange(6 * 4 * 4) % 255).astype(np.uint8).reshape(6, 4, 4)
        labels = bytes([0, 1, 1, 0, 1, 0])
        for n in (6, 4):
            (tmp_path / f"img{n}.idx").write_bytes(
                struct.pack(">IIII", 0x00000803, n, 4, 4) + arr[:n].tobytes())
            (tmp_path / f"lab{n}.idx").write_bytes(
                struct.pack(">II", 0x00000801, n) + labels[:n])
        rows = []
        for n, limit in ((6, 4), (4, 0)):
            out = tmp_path / f"out{n}"
            assert run_cli(
                "train", "--out", str(out),
                "--set", "problem.kind=idx",
                "--set", f"problem.images={tmp_path / f'img{n}.idx'}",
                "--set", f"problem.labels={tmp_path / f'lab{n}.idx'}",
                "--set", f"problem.limit={limit}",
                "--set", "optimizer.steps=3",
                "--set", "optimizer.batch_size=2",
                "--set", "model.hidden=8",
            ) == 0
            csv = Path(artifact(str(out), "train", ".csv")).read_text().splitlines()
            rows.append([line for line in csv if not line.startswith("#")])
        # a limit of 4 on six samples trains as the first four alone do
        assert rows[0] == rows[1] and len(rows[0]) == 4
