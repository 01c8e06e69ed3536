"""Golden sha256 digests of the load generators and the password model.

Each digest was recorded from the generators as they stood before their
bodies were merged; a change that moves any RNG draw, any clip or any
padding byte moves a digest here."""

import hashlib

import numpy as np
import pytest

from freqscope.keystroke import guess_curve, train_password_model
from freqscope.workloads import keystroke_workload, noise_workload, website_workload

SEEDS = (0, 1, 7, 2**40 + 3)
PRESSES_MS = (0, 130, 400, 2_000, 5_990, 12_345, 19_990)


def _digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk if isinstance(chunk, bytes) else repr(chunk).encode())
    return h.hexdigest()


def _loads(wl) -> bytes:
    return np.ascontiguousarray(wl.loads, dtype="<f8").tobytes()


def _presses(n_ticks: int, tick_ms: int) -> list[int]:
    return [p for p in PRESSES_MS if p < n_ticks * tick_ms]


GENERATORS = {
    "website": lambda n, seed: [
        website_workload(site, n, tick, seed=seed, jitter=jitter)
        for site in ("site00", "site07") for tick in (10, 20) for jitter in (0.03, 0.0, 0.3)],
    "noise": lambda n, seed: [noise_workload(n, tick, seed=seed) for tick in (10, 20)],
    "keystroke_presses": lambda n, seed: [
        keystroke_workload(_presses(n, tick), n, tick, seed=seed) for tick in (10, 20)],
    "keystroke_no_presses": lambda n, seed: [
        keystroke_workload([], n, tick, seed=seed) for tick in (10, 20)],
}

LOAD_DIGESTS = {
    ("website", 1): "7d9a75db2f7805ff92c5db717c67d7270d5ffc094bf0a2d901de449e372505f6",
    ("website", 7): "cdcd3541f82829a06ab7821927d1b1949c3b284992d3b649eb09ee2994b0866a",
    ("website", 300): "f75ada79b499b3d20d8a720d3f2d8258ebdeba02aa11521553640ac5b939872c",
    ("website", 1000): "9d1218609ac6f965f689c80bc1276eb9330d2e4f8653360cc7e53c70b5126ad1",
    ("noise", 1): "f3cd297e391ea6dc2f066bd7af029b99868e83f197419f1b5e79ba53ee7131e1",
    ("noise", 7): "f696dcf7849b1998f4a5978f205661a5d74895cf1568036c1fc1087bc77d4542",
    ("noise", 300): "5d5a56cad39f04f9fde1b576a0c9d88314cd4b02da1b6761744800ea5324c58f",
    ("noise", 1000): "347be261f25858a85ec7993a0cf5a280242178c46422eeab2275d48cf7e65bfc",
    ("keystroke_presses", 1): "9b3d80eafd428f456aff0da4cd6c6a7e31e1a5939141fb9585b6a7d4e9fa2b02",
    ("keystroke_presses", 7): "b0d0a59d501acb3f459176c5665ea4d6f49e0088f6e08559344d806e6d48cca3",
    ("keystroke_presses", 300): "c652ad7fce782a7817b0f760bc2c49e1a88d24093d4e8ba33c3d5433727a909b",
    ("keystroke_presses", 1000): "1302f908d14976be131d68de496e3623e61957fd53ab83495e93f6f765e5d336",
    ("keystroke_no_presses", 1): "e2be2d7720dfdd7f97a03cceed5d1d8547d480bf00907d9f5f44dbb52ace8f77",
    ("keystroke_no_presses", 7): "8168f9fa67a4023cb88c6d59ed6570863572f118c3d9219ab5998a0970939ad6",
    ("keystroke_no_presses", 300): "a902f2d86a912eb522ee2a129d1915b6860cb71be4a46d5ca9b92aa31d7130c6",
    ("keystroke_no_presses", 1000): "a056a4d3a6ffd3b74bc2fb6c6dc5e273edc3d054064b5a0aa59d7b3bc46f0248",
}


@pytest.mark.parametrize("kind,n_ticks", sorted(LOAD_DIGESTS))
def test_generator_loads_are_pinned(kind, n_ticks):
    workloads = [wl for seed in SEEDS for wl in GENERATORS[kind](n_ticks, seed)]
    assert _digest([wl.tick_ms for wl in workloads] + [_loads(wl) for wl in workloads]) \
        == LOAD_DIGESTS[(kind, n_ticks)]


def _ragged_timings() -> dict[str, list]:
    """Five passwords, 10-13 vectors each, of lengths 0-6; one password has
    only empty vectors, and plain lists stand beside arrays."""
    rng = np.random.default_rng(25)
    ds = {}
    for p, pw in enumerate(("harbor", "monkey", "quartz", "silent", "velvet")):
        vecs = []
        for i in range(10 + p % 4):
            n = 0 if pw == "silent" or i % 5 == 2 else int(rng.integers(1, 7))
            vec = rng.normal(200.0 + 40 * p, 30.0, size=n)
            vecs.append(vec.tolist() if i % 3 == 0 else vec)
        ds[pw] = vecs
    return ds


MODEL_DIGESTS = {
    0: (
        "3edc2bd122767aff65f0fc2f8691591efea31a35fb69582264c87b4a810fe99f",
        "5cd58e7ba68ccfe328c92494be039c0d3ad4bb7533553be85a90b63a8e0ab25d",
        "b59d1eecba403caafc4bc0d708247c7342cb77ad067a3476b5d3d0ea7b034238",
        "222ad9f4f27fb948ad8e908a3e33add0d90aa163eecc4f4a34fb3642ec0898dc",
    ),
    3: (
        "5614053376d8019992fee9da1e82761e0f12c51a853c4b9be496ba938dd6ee21",
        "5cd58e7ba68ccfe328c92494be039c0d3ad4bb7533553be85a90b63a8e0ab25d",
        "9f7cf69a89da9426aa25702b0e8e9ceed56cf0d208441dea92957f9a68c83bf4",
        "c4a3d37dba60192e04270a2d0139a3b512aae4513a202f80e749cc75e352228b",
    ),
}


@pytest.mark.parametrize("split_seed", sorted(MODEL_DIGESTS))
def test_password_model_is_pinned(split_seed):
    model, held_out = train_password_model(_ragged_timings(), split_seed=split_seed)
    curve = guess_curve(model, held_out, max_guesses=len(model.classes))
    got = (
        _digest([model.train_x.shape, np.ascontiguousarray(model.train_x, "<f8").tobytes()]),
        _digest(model.train_labels),
        _digest(c for label, vec in held_out
                for c in (label, vec.shape, np.ascontiguousarray(vec, "<f8").tobytes())),
        _digest([np.asarray(curve, "<f8").tobytes()]),
    )
    assert got == MODEL_DIGESTS[split_seed]


def test_guess_curve_pads_short_queries_and_rejects_long_ones():
    model, held_out = train_password_model(_ragged_timings())
    width = model.train_x.shape[1]
    trimmed = [(label, vec[:1]) for label, vec in held_out]
    padded = [(label, np.concatenate([vec[:1], np.zeros(width - 1)])) for label, vec in held_out]
    assert guess_curve(model, trimmed, 3) == guess_curve(model, padded, 3)
    with pytest.raises(ValueError, match=f"length {width + 1} exceeds model length {width}"):
        guess_curve(model, [("harbor", np.zeros(width + 1))], 3)
