"""A stateful model of the command line: drawn sequences of commands over one shard set.

A ``hypothesis`` state machine runs ``cli.main`` in-process on one small
code (n <= 9, each construction, over GF(2^8) or F_257) and one object of
0 bytes up to a few GF(2^8) blocks plus a tail.  GF(2^8) blocks are 16
stripes and the chunk budget is small, so objects cross block and chunk
edges.  Its rules delete a shard, repair a node by default or from drawn
helpers, decode from a drawn list of k nodes or the default, and encode
again, the same object or a new one.  The model predicts each exit code:
a repair works when its helpers, or by default k other nodes, are present,
and a decode when its k nodes are.  After each step:

- every shard present is the one the last encode wrote, byte for byte;
- a decode that exits 0 wrote the object exactly;
- a command that exits non-zero printed only its ``error:`` line and left
  its output as it was, with no temporary file.
"""

import contextlib
import io
import random
import shutil
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule, run_state_machine_as_test

from pmcode import analysis
from pmcode.cli import main, shard_name

CODES = [
    (construction, n, k, d, field)
    for n in range(3, 10)
    for k in range(2, n)
    for d in range(2 * k - 2, n)
    for construction in ("vanilla", "sparse", "rbt")
    if construction != "rbt" or d == 2 * k - 2
    for field in (("--gf256",), ("--q", 257))
]
MAX_BYTES = 700  # with B of 2 to 20 symbols: up to 22 blocks of 16 stripes, or about 2 blocks and a tail


def run(*argv) -> tuple[int, str, str]:
    """``cli.main`` on ``argv``: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


class CommandLine(RuleBasedStateMachine):
    @initialize(code=st.sampled_from(CODES), size=st.integers(0, MAX_BYTES), seed=st.integers(0, 3))
    def gen_and_encode(self, code, size, seed):
        construction, self.n, self.k, self.d, field = code
        self.root = Path(tempfile.mkdtemp(prefix="pmcode-model-"))
        self.shards, self.out = self.root / "shards", self.root / "out" / "object.bin"
        self.out.parent.mkdir()
        self.descriptor = self.root / "code" / "descriptor.json"
        assert run("gen", "--n", self.n, "--k", self.k, "--d", self.d, *field,
                   "--construction", construction, "--out-dir", self.descriptor.parent)[0] == 0
        self.decoded = None  # what the output file holds
        self.encode(size, seed)

    def teardown(self):
        if hasattr(self, "root"):
            shutil.rmtree(self.root)

    def expect(self, result, ok: bool, output: Path, before) -> bool:
        """Check one command's result against the model; ``before`` is ``output``'s bytes or None."""
        code, out, err = result
        assert code == (0 if ok else 2), (code, out, err)
        if not ok:
            assert not out and err.startswith("error: ") and err.count("\n") == 1, (out, err)
            assert (output.read_bytes() if output.exists() else None) == before
        return ok

    def encode(self, size, seed):
        self.payload = random.Random(seed).randbytes(size)
        data = self.root / "data.bin"
        data.write_bytes(self.payload)
        before = {i: self.shard(i).read_bytes() for i in range(self.n) if self.shard(i).exists()}
        assert run("encode", "--descriptor", self.descriptor, "--data", data, "--out-dir", self.shards)[0] == 0
        self.encoded = {i: self.shard(i).read_bytes() for i in range(self.n)}
        if (size, seed) == getattr(self, "last_object", None):
            assert before == {i: self.encoded[i] for i in before}
        self.last_object = (size, seed)
        self.present = set(range(self.n))

    def shard(self, i: int) -> Path:
        return self.shards / shard_name(i)

    @precondition(lambda self: self.present)
    @rule(data=st.data())
    def delete(self, data):
        node = data.draw(st.sampled_from(sorted(self.present)))
        self.shard(node).unlink()
        self.present.discard(node)

    @rule(data=st.data(), default=st.booleans())
    def repair(self, data, default):
        failed = data.draw(st.integers(0, self.n - 1))
        others = [i for i in range(self.n) if i != failed]
        argv = ["repair", "--descriptor", self.descriptor, "--shard-dir", self.shards, "--failed", failed]
        if default:
            ok = sum(1 for i in others if i in self.present) >= self.k
        else:
            helpers = data.draw(st.permutations(others))[: self.d]
            argv += ["--helpers", ",".join(map(str, helpers))]
            ok = set(helpers) <= self.present
        before = self.encoded[failed] if failed in self.present else None
        if self.expect(run(*argv), ok, self.shard(failed), before):
            assert self.shard(failed).read_bytes() == self.encoded[failed]
            self.present.add(failed)

    @rule(data=st.data(), default=st.booleans())
    def decode(self, data, default):
        argv = ["decode", "--descriptor", self.descriptor, "--shard-dir", self.shards, "--out", self.out]
        if default:
            ok = len(self.present) >= self.k
        else:
            pool = sorted(self.present) if len(self.present) >= self.k else range(self.n)
            ids = data.draw(st.permutations(pool))[: self.k]
            argv += ["--nodes", ",".join(map(str, ids))]
            ok = set(ids) <= self.present
        if self.expect(run(*argv), ok, self.out, self.decoded):
            assert self.out.read_bytes() == self.payload
            self.decoded = self.payload

    @rule(same=st.booleans(), size=st.integers(0, MAX_BYTES), seed=st.integers(0, 3))
    def encode_again(self, same, size, seed):
        if same:
            size, seed = self.last_object
        self.encode(size, seed)

    @invariant()
    def shards_are_the_encoded_ones_and_no_temporary_file_is_left(self):
        if not hasattr(self, "root"):
            return
        assert sorted(p.name for p in self.shards.iterdir()) == sorted(shard_name(i) for i in self.present)
        for i in self.present:
            assert self.shard(i).read_bytes() == self.encoded[i], i
        assert not [p for p in self.root.rglob("*.tmp")]


def test_command_sequences_keep_every_shard_and_decode_exactly(monkeypatch):
    monkeypatch.setattr(analysis, "PACKET", 2)  # GF(2^8) blocks of 16 stripes
    monkeypatch.setattr(analysis, "_CHUNK_BYTES", 2048)  # several chunks per command
    run_state_machine_as_test(CommandLine, settings=settings(
        max_examples=50, stateful_step_count=10, derandomize=True, database=None, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    ))
