import re
import shlex
from pathlib import Path

from catwalk.cli import build_parser
from catwalk.config import KEYS, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_run(capsys):
    # the library tour's examples import only names the package still has
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out


def test_readme_shell_examples_parse():
    # every catwalk command in the shell examples uses real flags with valid
    # values; a --config file it names is not read
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    commands = [line for block in blocks for line in block.splitlines()
                if line.startswith("catwalk ")]
    assert commands
    for command in commands:
        args = build_parser().parse_args(shlex.split(command, comments=True)[1:])
        parse_config(flags={key: getattr(args, key) for key in KEYS}, scenario=args.scenario)
