import re
from pathlib import Path

import pytest

from raclib.config import load_config


def test_defaults():
    config = load_config(env={})
    assert config.record_size == 1024
    assert config.port == 8080


def test_file_values_and_comments(tmp_path):
    conf = tmp_path / "raclib.conf"
    conf.write_text("# delivery host\nport = 9000\nlibrary_dir=/srv/lib\n\ncache_root=/srv/cache\n")
    config = load_config(conf, env={})
    assert config.port == 9000
    assert config.library_dir == Path("/srv/lib")
    assert config.cache_root == Path("/srv/cache")


def test_env_overrides_file_and_flags_override_env(tmp_path):
    conf = tmp_path / "raclib.conf"
    conf.write_text("port=9000\n")
    env = {"RACLIB_PORT": "9100"}
    assert load_config(conf, env=env).port == 9100
    assert load_config(conf, env=env, port=9200).port == 9200


def test_unknown_key_rejected(tmp_path):
    conf = tmp_path / "raclib.conf"
    conf.write_text("portt=9000\n")
    with pytest.raises(ValueError, match="unknown config key"):
        load_config(conf, env={})


def test_unknown_variable_rejected():
    for variable in ("RACLIB_PROT", "RACLIB_port", "RACLIB_BUCKET_TTL_SECONDS"):
        with pytest.raises(ValueError, match=f"^{variable}: unknown config variable$"):
            load_config(env={variable: "80"})
    assert load_config(env={"PORT": "80", "RACLIB": "80"}).port == 8080


def test_malformed_line_rejected(tmp_path):
    conf = tmp_path / "raclib.conf"
    conf.write_text("port 9000\n")
    with pytest.raises(ValueError, match="key=value"):
        load_config(conf, env={})


def test_file_errors_name_the_line(tmp_path):
    conf = tmp_path / "raclib.conf"
    conf.write_text("# delivery host\nport=80x\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{conf}:2: port: invalid literal")):
        load_config(conf, env={})
    conf.write_text("port=9000\n\nportt=9000\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{conf}:3: unknown config key: portt")):
        load_config(conf, env={})


def test_a_file_that_is_not_ascii_names_its_line(tmp_path):
    conf = tmp_path / "raclib.conf"
    conf.write_text("port=9000\n# caché\nrecord_size=512\n", "utf-8")
    with pytest.raises(ValueError, match="^" + re.escape(f"{conf}:2: not ASCII") + "$"):
        load_config(conf, env={})


def test_environment_errors_name_the_variable():
    with pytest.raises(ValueError, match="^RACLIB_PORT: port: invalid literal"):
        load_config(env={"RACLIB_PORT": "abc"})


def test_out_of_range_values_name_their_source(tmp_path):
    conf = tmp_path / "raclib.conf"
    conf.write_text("# delivery host\nport=80000\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{conf}:2: port out of range: 80000")):
        load_config(conf, env={})
    conf.write_text("record_size=0\n")
    with pytest.raises(ValueError, match="^" + re.escape(f"{conf}:1: record_size must be >= 1, got 0")):
        load_config(conf, env={})
    with pytest.raises(ValueError, match="^RACLIB_PORT: port out of range: 0"):
        load_config(env={"RACLIB_PORT": "0"})
    with pytest.raises(ValueError, match="^RACLIB_RECORD_SIZE: record_size must be >= 1, got -1"):
        load_config(env={"RACLIB_RECORD_SIZE": "-1"})
    with pytest.raises(ValueError, match="^port out of range: 65536"):
        load_config(env={}, port=65536)
