"""Reference for `defend.defense_sweep`: the serial loop it replaced, which
trains the clean baseline and then each defense in turn, in this process,
each on the parts of a whole defended copy of the dataset."""

from dataset_oracle import split_dataset
from freqscope.classify import evaluate
from freqscope.dataset import LabeledDataset, stable_seed
from freqscope.defend import SweepRow, _defended_samples


def defended_dataset(d, ds: LabeledDataset) -> LabeledDataset:
    """Defense d applied to every measurement of ds, a label's matrix at a
    time, row i of a label salted by stable_seed("trace-salt", label, i)."""
    samples = {}
    for label, rows in ds.samples.items():
        salts = [stable_seed("trace-salt", label, i) for i in range(len(rows))]
        samples[label] = _defended_samples(d, rows, ds.devices[label], ds.interval_ms, salts)
    return LabeledDataset(samples, ds.devices, ds.interval_ms)


def serial_sweep(defenses, ds, trainer, seed, fractions, topk=(1, 5)):
    clean_train, _, clean_test = split_dataset(ds, seed, fractions)
    clean_report = evaluate(trainer(clean_train), clean_test, topk=topk)
    rows = []
    for d in defenses:
        dds = defended_dataset(d, ds)
        def_train, _, def_test = split_dataset(dds, seed, fractions)
        report = evaluate(trainer(def_train), def_test, topk=topk)
        rows.append(SweepRow(
            kind=d.kind,
            param=d.param_label(),
            top1_clean=clean_report.top1_accuracy,
            top1_defended=report.top1_accuracy,
        ))
    return rows
