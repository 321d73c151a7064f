"""The README's command-line example and example config, run as written."""

import re
import shlex
from pathlib import Path

from beamcs.experiment import ExperimentConfig, main, parse_config_file

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang):
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```%s\n(.*?)^```" % lang, text, flags=re.M | re.S)


def test_readme_example_config_validates(tmp_path):
    (ini,) = _blocks("ini")
    path = tmp_path / "example.cfg"
    path.write_text(ini, encoding="utf-8")
    ExperimentConfig(**parse_config_file(path)).validate()


def test_readme_command_runs(tmp_path):
    (cmd,) = [b for b in _blocks("sh") if b.startswith("beamcs ")]
    prog, *argv = shlex.split(cmd.replace("\\\n", " "), comments=True)
    assert prog == "beamcs"
    for flag, value in (("--trials", "1"), ("--workers", "1"), ("--out", str(tmp_path))):
        argv[argv.index(flag) + 1] = value
    assert main(argv) == 0
    lines = (tmp_path / "summary.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 13 * 3  # header, then 13 SNR points of 3 methods
