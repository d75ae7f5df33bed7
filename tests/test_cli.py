"""The ``python -m repro`` command-line entry point."""

import pkgutil
from collections import Counter

import repro.experiments
from repro.__main__ import EXPERIMENTS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_run_exact_name(self, capsys):
        assert main(["run", "opt_ladder"]) == 0
        out = capsys.readouterr().out
        assert "optimization ladder" in out

    def test_run_prefix_match(self, capsys):
        assert main(["run", "fig5"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_run_unknown(self, capsys):
        assert main(["run", "nope"]) == 2
        assert "unknown" in capsys.readouterr().out

    def test_run_ambiguous(self, capsys):
        assert main(["run", "fig1"]) == 2  # fig10, fig11, fig12
        assert "ambiguous" in capsys.readouterr().out

    def test_no_args_usage(self, capsys):
        assert main([]) == 2
        assert "Usage" in capsys.readouterr().out

    def test_run_without_name(self):
        assert main(["run"]) == 2

    def test_unknown_command(self):
        assert main(["bogus"]) == 2

    def test_every_registered_experiment_has_main(self):
        for name, (module, description) in EXPERIMENTS.items():
            assert callable(module.main), name
            assert description

    def test_every_experiment_module_registered_once(self):
        # An experiment module without a CLI entry is orphaned; one with two
        # entries runs twice under ``all``.
        modules = {
            info.name
            for info in pkgutil.iter_modules(repro.experiments.__path__)
        } - {"common"}
        registered = Counter(
            module.__name__.rsplit(".", 1)[-1] for module, _ in EXPERIMENTS.values()
        )
        assert set(registered) == modules
        assert all(count == 1 for count in registered.values()), registered
