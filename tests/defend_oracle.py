"""Reference for `defend.defense_sweep`: the serial loop it replaced, which
trains the clean baseline and then each defense in turn, in this process."""

from freqscope.classify import evaluate
from freqscope.dataset import split_dataset
from freqscope.defend import SweepRow, defended_dataset


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
