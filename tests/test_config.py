import dataclasses

import numpy as np
import pytest

from graft import GraftError, SynthSpec, TransferConfig, generate
from graft.config import CONFIG_KEYS, build_config, parse_config_file
from graft.selection import fit_selection_model, metapath_distance_matrices, selection_objective
from graft.transfer import construct_dependencies

# keys TransferConfig used to have; every door now rejects them
REMOVED_KEYS = ("theta", "lam_selection", "lam_construction", "ridge", "distance_cap", "construction_tol")
DEFAULTS = {f.name: f.default for f in dataclasses.fields(TransferConfig)}


def rejects(name: str, msg: str):
    """What setting ``name`` on a config raises: msg for a field, TypeError for a removed key."""
    if name in REMOVED_KEYS:
        return pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'")
    return pytest.raises(GraftError, match=msg)


class TestTransferConfig:
    def test_defaults_valid(self):
        c = TransferConfig()
        assert c.lam == 0.1 and c.mu is None and c.z_entity == 1.96

    @pytest.mark.parametrize(
        "kwargs,msg",
        [
            ({"theta": 3}, "theta"),
            ({"lam": -0.1}, "lam"),
            ({"lam_selection": -1.0}, "lam_selection"),
            ({"ridge": float("inf")}, "ridge"),
            ({"d1": 0}, "d1"),
            ({"d2": 2.5}, "d2"),
            ({"z_entity": 0.0}, "z_entity"),
            ({"z_edge": -1.96}, "z_edge"),
            ({"max_path_len": 1}, "max_path_len"),
            ({"mu": 1.5}, "mu"),
            ({"mu": -0.1}, "mu"),
            ({"distance_cap": 0.0}, "distance_cap"),
            ({"construction_tol": 0.0}, "construction_tol"),
            ({"eta0": -0.01}, "eta0"),
            ({"construction_max_iters": 0}, "construction_max_iters"),
            ({"seed": True}, "seed"),
            ({"lam": float("inf")}, "lam"),
            ({"seed": -1}, "^seed must be a nonnegative integer"),
        ],
    )
    def test_invalid_values_rejected(self, kwargs, msg):
        # build_config names a removed key as unknown; it passes the rest to TransferConfig
        with pytest.raises(GraftError, match=msg):
            build_config(None, kwargs)

    @pytest.mark.parametrize("name", CONFIG_KEYS + REMOVED_KEYS)
    def test_booleans_rejected(self, name):
        # bool is an int subclass, so without the check True passes as 1
        for flag in (True, False):
            with rejects(name, f"^{name} must be a number, not a boolean"):
                TransferConfig(**{name: flag})

    def test_none_rejected_where_not_optional(self):
        with pytest.raises(GraftError, match="^eta0 must be a number, got None"):
            TransferConfig(eta0=None)

    def test_lam_overrides(self):
        # lam is the one regularization weight: both model-fitting stages read it
        gs, _, gt_hat = generate(SynthSpec(30, 15, dynamic_factor=0.1, maturity=0.5, seed=0))
        cfg = TransferConfig(lam=0.5)
        state = fit_selection_model(gs, cfg)
        mats = metapath_distance_matrices(gs, cfg)
        assert state.objective_trace == [selection_objective(state.embedding, mats, 0.5)]
        _, _, prob = construct_dependencies(gs, gt_hat, gt_hat, None, cfg)
        assert prob.reg == 0.5

    def test_to_dict_round_trips(self):
        c = TransferConfig(mu=0.3, d2=8)
        assert TransferConfig(**c.to_dict()) == c


@pytest.mark.parametrize("bad", ["1", np.True_], ids=["string", "numpy-bool"])
@pytest.mark.parametrize(
    "cls,name",
    [(cls, f.name) for cls in (TransferConfig, SynthSpec) for f in dataclasses.fields(cls)]
    + [(TransferConfig, name) for name in REMOVED_KEYS],
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)
def test_non_numbers_rejected_naming_the_field(cls, name, bad):
    required = {"n_source": 10, "n_target": 5} if cls is SynthSpec else {}
    with rejects(name, f"^{name} must be"):
        cls(**{**required, name: bad})


class TestParseConfigFile:
    def test_parses_keys_comments_and_blanks(self):
        text = "\n".join(
            [
                "# comment",
                "",
                "mu = 0.25",
                "d2 = 32",
                "d1=8",
                "z_edge = none",
            ]
        )
        got = parse_config_file(text)
        assert got == {"mu": 0.25, "d2": 32, "d1": 8, "z_edge": None}
        assert isinstance(got["d2"], int)

    def test_auto_means_none(self):
        assert parse_config_file("mu = auto") == {"mu": None}

    @pytest.mark.parametrize(
        "text,msg",
        [
            ("mu 0.5", "expected 'key = value'"),
            ("nope = 1", "unknown config key"),
            ("d2 = 2.5", "expects an integer"),
            ("lam = abc", "expects a number"),
        ],
    )
    def test_bad_lines_rejected(self, text, msg):
        with pytest.raises(GraftError, match=msg):
            parse_config_file(text)

    def test_removed_selection_keys_rejected(self):
        for name in ("selection_tol", "selection_max_iters") + REMOVED_KEYS:
            with pytest.raises(GraftError, match="unknown config key"):
                parse_config_file(f"{name} = 2")
            with pytest.raises(GraftError, match="unknown config keys"):
                build_config(None, {name: 2})

    @pytest.mark.parametrize("name", CONFIG_KEYS + REMOVED_KEYS)
    def test_value_parses_to_the_default_type(self, name):
        if name in REMOVED_KEYS:
            with pytest.raises(GraftError, match=f"^unknown config key '{name}'$"):
                parse_config_file(f"{name} = 3")
            return
        value = parse_config_file(f"{name} = 3")[name]
        assert value == 3
        assert type(value) is (int if isinstance(DEFAULTS[name], int) else float)

    def test_error_names_line_number(self):
        with pytest.raises(GraftError, match="line 3"):
            parse_config_file("mu = 0.5\n# ok\nbroken line\n")

    @pytest.mark.parametrize("text", ["mu = 0.2\nmu = 0.9", "mu = 0.2\n# again\n  mu=auto\n"])
    def test_repeated_key_rejected_naming_both_lines(self, text):
        last = len(text.rstrip("\n").splitlines())
        with pytest.raises(GraftError, match=f"^config line {last}: key 'mu' is already set on line 1$"):
            parse_config_file(text)


class TestBuildConfig:
    def test_flags_beat_file_beat_defaults(self):
        c = build_config({"mu": 0.5, "d2": 8}, {"mu": 0.9})
        assert c.mu == 0.9 and c.d2 == 8 and c.d1 == 16

    def test_explicit_none_flag_wins(self):
        c = build_config({"mu": 0.5}, {"mu": None})
        assert c.mu is None

    def test_unknown_key_rejected(self):
        with pytest.raises(GraftError, match="unknown config keys"):
            build_config({"bogus": 1.0}, None)

    def test_invalid_merged_value_rejected(self):
        with pytest.raises(GraftError, match="d1"):
            build_config(None, {"d1": 0})
