"""Pinned sha256 digests of exact outputs: CLI commands, the p-adic laws and
Pierce-Lehmer values.

A CLI entry digests the exit code, stdout and stderr of one command, with
every float in them rounded to 10 significant digits first, so that a last-bit
libm difference between Pythons cannot flip the digest of analyze or
asymptotics.  The help text is formatted for 80 columns.  A library entry
digests the reprs of one function's results over the primes up to 7, with a
raised exception recorded as its type and message; a Pierce-Lehmer entry
digests the values of J at the layers it names, in hex.  A change that alters
any of these outputs on purpose re-records the digests and says which ones
changed and why.

Print the current digests with: PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

from ihara_towers.ihara import analyze, pierce_lehmer, pierce_lehmer_range
from ihara_towers.padic_engine import (
    friedman_laws,
    iwasawa_invariants,
    sequence_classes,
    washington_invariants,
)
from ihara_towers.towers_cli import generate_family, main

GRAPHS = {"bouquet_35": ("bouquet", "3", "5"), "dumbbell_23": ("dumbbell", "2", "3"),
          "fibonacci": ("fibonacci",)}
PRIMES = (2, 3, 5, 7)
# one base graph per generator family, beyond the three graphs above
FAMILIES = (("bouquet", "2"), ("circulant-base", "1", "3"), ("dumbbell", "1", "4"),
            ("petersen", "2"), ("igraph", "1", "2"), ("fibonacci",))
FLOAT = re.compile(r"-?\d+(?:\.\d+)?e[-+]?\d+|-?\d+\.\d+")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _rounded(text: str) -> str:
    return FLOAT.sub(lambda m: format(float(m.group()), ".10g"), text)


def _cli(args) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        try:
            code = main(list(args))
        except SystemExit as exc:  # --help, and argparse's usage errors
            code = exc.code
    return _sha(_rounded(f"{code}\n{out.getvalue()}\n{err.getvalue()}"))


def _calls(thunks) -> str:
    lines = []
    for thunk in thunks:
        try:
            value = thunk()
        except Exception as exc:
            lines.append(f"{type(exc).__name__}: {exc}")
        else:
            # outside the try: a result too large to print fails the test
            lines.append(repr(value))
    return _sha("\n".join(lines))


def golden_digests(workdir) -> dict:
    digests = {"--help": _cli(["--help"]), "generate": _cli(["generate"])}
    for family in FAMILIES:
        digests[f"generate {' '.join(family)}"] = _cli(["generate", *family])
    for name, family in GRAPHS.items():
        path = str(Path(workdir) / f"{name}.json")
        digests[f"{name} generate"] = _cli(["generate", *family])
        main(["generate", *family, "--output", path])
        commands = [["table", "--n-max", "20", "--format", "json"],
                    ["table", "--n-max", "20", "--format", "csv"],
                    ["verify", "--n-max", "8"]]
        commands += [["padic", "--prime", str(p), "--n-max", "60", "--format", fmt]
                     for p in PRIMES for fmt in ("json", "csv")]
        commands += [["analyze"], ["analyze", "--prime", "2", "--prime", "5"],
                     ["analyze", "--prime", "4"], ["asymptotics"],
                     ["padic", "--prime", "4"], ["padic", "--prime", "1"],
                     ["padic", "--prime", "9"]]
        for command in commands:
            digests[f"{name} {' '.join(command)}"] = _cli([command[0], path, *command[1:]])

        ta = analyze(generate_family(family[0], family[1:]))
        j = ta.j_poly
        others = {p: [q for q in PRIMES if q != p] for p in PRIMES}
        digests[f"{name} iwasawa_invariants"] = _calls(
            lambda p=p: iwasawa_invariants(j, p) for p in PRIMES)
        digests[f"{name} washington_invariants"] = _calls(
            lambda p=p, ell=ell: washington_invariants(j, p, ell)
            for p in PRIMES for ell in others[p])
        digests[f"{name} friedman_laws"] = _calls(
            lambda p=p: friedman_laws(j, p, others[p][:2], bound=300) for p in PRIMES)
        digests[f"{name} sequence_classes"] = _calls(
            lambda p=p: sequence_classes(ta, p, 60) for p in PRIMES)
        # hex, since repr refuses ints of more than 4300 decimal digits
        digests[f"{name} pierce_lehmer_range 300"] = _calls(
            [lambda: [hex(v) for v in pierce_lehmer_range(j, 300)]])
        digests[f"{name} pierce_lehmer 10**4, 10**4 + 1"] = _calls(
            lambda n=n: hex(pierce_lehmer(j, n)) for n in (10 ** 4, 10 ** 4 + 1))
    return digests


EXPECTED = {
    "--help":
        "95f9f9b52a8e5e7f83f9f5ccb11b2595976466ce051c1ad1d5ab002a1a61b81a",
    "generate":
        "7efd8d60c638d699058c6a01797d4cc33ac46f292719c49071e3c06878f8d4f6",
    "generate bouquet 2":
        "087bb50a3285fbb9b969284ade903f5ed720cd70019ae6c10a07cc08c0fefaa2",
    "generate circulant-base 1 3":
        "0a0b8c80b2ff0fee3173db9ac9328d1fed7bc5725640221f72bd015eaa3839c4",
    "generate dumbbell 1 4":
        "4a2d8fc037d85e2725c8dceecff4be125ccdbfe37a5ad808d981a008da2e9ad7",
    "generate petersen 2":
        "a661ebe612ff2806572296bcf3cab2b34f60347305e3644bc46bd0b15a09a6e4",
    "generate igraph 1 2":
        "a661ebe612ff2806572296bcf3cab2b34f60347305e3644bc46bd0b15a09a6e4",
    "generate fibonacci":
        "2098d438e64af0e98fae04b82ee60108514f1ed34425a39314cdf942f12c60b9",
    "bouquet_35 generate":
        "fb7ea19be5cd6b0cb4ec0c1cb05ce9183b0a25bba5ee7ec233992be7e714ca21",
    "bouquet_35 table --n-max 20 --format json":
        "0897c543bc30d2ffe5898f0b17cb0e43156abf9ae96b4bbb60d0527a0954d0fc",
    "bouquet_35 table --n-max 20 --format csv":
        "613b911d5cb842e61682f3d9a7a0fe6441fc088466bcccf965a336de9619e2d8",
    "bouquet_35 verify --n-max 8":
        "ba12f0f802771683d9d98299dfa12223a315e45680844bf981c1cf08fdc01b1a",
    "bouquet_35 padic --prime 2 --n-max 60 --format json":
        "5870d50a59b6c4d01c217ed7d80eb7e8b2e88b6a09c4297c54bf2815a02a6fe2",
    "bouquet_35 padic --prime 2 --n-max 60 --format csv":
        "d70fb36a6047b815aa03aa38e495f1ca71e8e542649692e270d779d580f61d76",
    "bouquet_35 padic --prime 3 --n-max 60 --format json":
        "8a61e1b58a4e96e3135ed4500dc2a6ae22b8231659f58cac5d3548361eeeabc2",
    "bouquet_35 padic --prime 3 --n-max 60 --format csv":
        "2ab9384cb04c299d156ea3528e43b6b453e40256acf6440f5c8921afba28b808",
    "bouquet_35 padic --prime 5 --n-max 60 --format json":
        "e4a121ed18937c3bb2a97657e11cfddb18b01fca1f4fe6e341de27c4735dbeba",
    "bouquet_35 padic --prime 5 --n-max 60 --format csv":
        "c82bac8701634a276b21a0d78151b4a9b0d4f5e0bf9a0a111324b167943976ff",
    "bouquet_35 padic --prime 7 --n-max 60 --format json":
        "4e93effe334136af894d54616824baf9071ce3f07eae2f290d0aed840b78071e",
    "bouquet_35 padic --prime 7 --n-max 60 --format csv":
        "ddc56669a09363012c406e6bbbf794e15f67db5c3a2c2e7fb7638bef3c0c4cf2",
    "bouquet_35 analyze":
        "c65af23ff405770c6ef41b743d4272bdae6f796b17151e958fc19708f38777bc",
    "bouquet_35 analyze --prime 2 --prime 5":
        "dcf8a2f58d2c8a3421f9ea6c03f015d1328099bf9396c88253638a61d115629f",
    "bouquet_35 analyze --prime 4":
        "715a7d1469af6fd6ab402228c8ce3a1402f87e6c20d6f5507df7be0366fdcae3",
    "bouquet_35 asymptotics":
        "a51f45c8b4aff9362d67863c596d4c259fb9ae6da056ea1442b721bb846802ab",
    "bouquet_35 padic --prime 4":
        "715a7d1469af6fd6ab402228c8ce3a1402f87e6c20d6f5507df7be0366fdcae3",
    "bouquet_35 padic --prime 1":
        "6c590531ff905b151ccd8f62c3fe544322f6e5af40941e46dbb9d65e047e760e",
    "bouquet_35 padic --prime 9":
        "364e7d05e41a1d0ee8fd23a038916bcf7641b6c3ffccfddf3b72409b5b2faaac",
    "bouquet_35 iwasawa_invariants":
        "73aa5f022a03867d20f166aced8a8e5050b11198f72cc2e3504227ab482db5fb",
    "bouquet_35 washington_invariants":
        "d5e509b9e3e3a0517251b69341289b137e859a0f3fbc259158aeb1eb8057b65e",
    "bouquet_35 friedman_laws":
        "74482e4ddfb4bd0826414e2ab135bd6c24ebd2245dadb07182a48746ac67c9d5",
    "bouquet_35 sequence_classes":
        "c31bce9d132620f42c974a1927e4035016ed82cd36bf42da782b78a3627e5c69",
    "bouquet_35 pierce_lehmer_range 300":
        "1bb7373b466a234af9586cb0cd22a12d8a3abd5f7ab7bacde3c3101730364f54",
    "bouquet_35 pierce_lehmer 10**4, 10**4 + 1":
        "416977177d77d7dd4f77412562bc85a4d30b379e82ce9a23dcf4dbe6afaf33ae",
    "dumbbell_23 generate":
        "d4af695635102571f9ca5e0ec18cf9fa3e16d23b8c6e98be3a16f8d2daed5774",
    "dumbbell_23 table --n-max 20 --format json":
        "781191c2c5437abec02130a7dbda222d74c1f330c2f3007e112160c801f61ab2",
    "dumbbell_23 table --n-max 20 --format csv":
        "c9215a64c3f9bee244fef0a38b7d68bab636a7d77441fd6b01c16717225a6bb5",
    "dumbbell_23 verify --n-max 8":
        "ba12f0f802771683d9d98299dfa12223a315e45680844bf981c1cf08fdc01b1a",
    "dumbbell_23 padic --prime 2 --n-max 60 --format json":
        "8f56a744e59f13581639ee4b19a5da01b5132e2de920bfa395db46ee04b5b89f",
    "dumbbell_23 padic --prime 2 --n-max 60 --format csv":
        "02bbd2d313eb5910027fe72cb6ef8c3ef078fc0d3b2acab72a49c10a56a1594c",
    "dumbbell_23 padic --prime 3 --n-max 60 --format json":
        "8a61e1b58a4e96e3135ed4500dc2a6ae22b8231659f58cac5d3548361eeeabc2",
    "dumbbell_23 padic --prime 3 --n-max 60 --format csv":
        "2ab9384cb04c299d156ea3528e43b6b453e40256acf6440f5c8921afba28b808",
    "dumbbell_23 padic --prime 5 --n-max 60 --format json":
        "3fd302ec53775b7cc00b54e041f11e1d34d6380a97533df955cd14d01f9a43c3",
    "dumbbell_23 padic --prime 5 --n-max 60 --format csv":
        "511a89641fba2ebd527cc366e6a9b65515903f13daca31c0dffa01b8927c8c3f",
    "dumbbell_23 padic --prime 7 --n-max 60 --format json":
        "4cc689091f74abe5320a519205064877ab9ad178220292df059340ae8b87bca8",
    "dumbbell_23 padic --prime 7 --n-max 60 --format csv":
        "9746f0f161e56e7efdedd479083829617ace88ff4c284e50bb7b06659f44c8a4",
    "dumbbell_23 analyze":
        "1fad34fb56c06bcd8c65c7969fc5832827a9997c551be7cc0e950aab3c2f108e",
    "dumbbell_23 analyze --prime 2 --prime 5":
        "3fa2ee5afe9cb6bcae841a8980a980573c0541c4d76d267e3efb21f7082b6fb4",
    "dumbbell_23 analyze --prime 4":
        "715a7d1469af6fd6ab402228c8ce3a1402f87e6c20d6f5507df7be0366fdcae3",
    "dumbbell_23 asymptotics":
        "ab036dcffa46cd6afba2cbf8e8385ede4e7f65f18fb8e69875b15e331fd7bd07",
    "dumbbell_23 padic --prime 4":
        "715a7d1469af6fd6ab402228c8ce3a1402f87e6c20d6f5507df7be0366fdcae3",
    "dumbbell_23 padic --prime 1":
        "6c590531ff905b151ccd8f62c3fe544322f6e5af40941e46dbb9d65e047e760e",
    "dumbbell_23 padic --prime 9":
        "364e7d05e41a1d0ee8fd23a038916bcf7641b6c3ffccfddf3b72409b5b2faaac",
    "dumbbell_23 iwasawa_invariants":
        "ce78f6649712224bf64c45ee7dfd03ac3897a921305f7251ca2c8cc43d500130",
    "dumbbell_23 washington_invariants":
        "00ef4b84133edb65ccb03bb1035e5d11a4f80dcc9d09410bcafc9ef213805fba",
    "dumbbell_23 friedman_laws":
        "a74dc154a53af358468f2a8febb954759b6f6f0752b50e48e547d8e5342ea88c",
    "dumbbell_23 sequence_classes":
        "6f077c2c40deccf3501e225edfabfc0dec62c435ec8b83d31a70b90985ad3133",
    "dumbbell_23 pierce_lehmer_range 300":
        "7d682605bec694ef1aad7e11b773a2da1fa9a75c964c079bae7496cfc981e031",
    "dumbbell_23 pierce_lehmer 10**4, 10**4 + 1":
        "7061aa414e46c515d6588353afd187115b759753660f85a26ed8603452d2f9ae",
    "fibonacci generate":
        "2098d438e64af0e98fae04b82ee60108514f1ed34425a39314cdf942f12c60b9",
    "fibonacci table --n-max 20 --format json":
        "0520f7f0ee7be23b2c82b852370d2274a999977122ba4d48d8b932652c30584e",
    "fibonacci table --n-max 20 --format csv":
        "cd8602fc180d77ff959c4802f7346d66a50592a241f1d7fe2d9e62b5e158815f",
    "fibonacci verify --n-max 8":
        "ba12f0f802771683d9d98299dfa12223a315e45680844bf981c1cf08fdc01b1a",
    "fibonacci padic --prime 2 --n-max 60 --format json":
        "22cdc737fa8fa2a13a914c153d35cb22e7897536d6420267dc73e7e3f6244a1e",
    "fibonacci padic --prime 2 --n-max 60 --format csv":
        "114db9d23fce19e7298f0838512e5c86736cb9f4ff07a1c88960d866f1f74409",
    "fibonacci padic --prime 3 --n-max 60 --format json":
        "465d377a8cc756ec1c147ec2c23b756a49649ba28c1c606838329d13118ab4bb",
    "fibonacci padic --prime 3 --n-max 60 --format csv":
        "ba322dc31ed2626d93c584b446fe30d8bd79c9c80a423404f3946ac1dbf90e3f",
    "fibonacci padic --prime 5 --n-max 60 --format json":
        "a7c95b700c0ff1cb9d66eb48342fe1290edeca2f57aac1047abc0a3fda05612e",
    "fibonacci padic --prime 5 --n-max 60 --format csv":
        "9241c7a1abe48a52af1f799b60143679722af8ca897fb7268f0bfd629c309510",
    "fibonacci padic --prime 7 --n-max 60 --format json":
        "d9c285a954401e812a21a103779f94a73972e8d994cd3082a75bb77f43cd20e7",
    "fibonacci padic --prime 7 --n-max 60 --format csv":
        "1757daab93231fa0fee2f1b8e410131cb9614d34d8e0c0957f26dc6df9d85c29",
    "fibonacci analyze":
        "a738544ee3686cc874870a7baa7aeff2ec4864789687717a3f44f52e1dee8ce3",
    "fibonacci analyze --prime 2 --prime 5":
        "5ed25520bf554472a8f09fd475845a1de6184bc0281ea0d177ea981d78ebf3a0",
    "fibonacci analyze --prime 4":
        "715a7d1469af6fd6ab402228c8ce3a1402f87e6c20d6f5507df7be0366fdcae3",
    "fibonacci asymptotics":
        "ef1e488890e9cfd6800838e80da0a270a87ed079ffd5e3f7d2755a4c6c820c4e",
    "fibonacci padic --prime 4":
        "715a7d1469af6fd6ab402228c8ce3a1402f87e6c20d6f5507df7be0366fdcae3",
    "fibonacci padic --prime 1":
        "6c590531ff905b151ccd8f62c3fe544322f6e5af40941e46dbb9d65e047e760e",
    "fibonacci padic --prime 9":
        "364e7d05e41a1d0ee8fd23a038916bcf7641b6c3ffccfddf3b72409b5b2faaac",
    "fibonacci iwasawa_invariants":
        "6897c57586468c22086167cda7073fdc0403bc8d6e4e6396dd052ba83e61a1b4",
    "fibonacci washington_invariants":
        "508aed83199292dab839792b730cdb3d4d6551da6d559f7fcafe50fd80056445",
    "fibonacci friedman_laws":
        "f3cdd3648b3a433698dae39bf8c5d8f339d498852c60702e8bd5062e33930abb",
    "fibonacci sequence_classes":
        "7dd4ef25ed64ecb68091e1d011357f672885bd3eeef9095c77c8f08775d7d0d3",
    "fibonacci pierce_lehmer_range 300":
        "4f4fcbb562f36f6163239c9cf2e8d15098fbf6c27cd8f25b3ad3a0dd505c9b1c",
    "fibonacci pierce_lehmer 10**4, 10**4 + 1":
        "2279488b7dc0b4794492701e0ffa190524d3b7df61548d8eab9b87ff6f711869",
}


def test_outputs_match_recorded_digests(tmp_path):
    digests = golden_digests(tmp_path)
    assert {k: v for k, v in digests.items() if EXPECTED.get(k) != v} == {}
    assert digests.keys() == EXPECTED.keys()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        json.dump(golden_digests(workdir), sys.stdout, indent=4)
    print()
