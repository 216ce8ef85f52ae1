#!/usr/bin/env python3
"""Crash-point chaos harness for the durable serving layer.

Drives smpmsf-server through kill-9 crashes at every named persist crash
point, restarts it on the same data directory, and verifies the recovered
session is bit-identical to a from-scratch Kruskal solve over a prefix of
the sent updates that covers everything the server acknowledged:

    acked  ⊆  recovered prefix  ⊆  sent

(The prefix may exceed the acked set: a record that reached the OS page
cache before a process kill legitimately survives, it just was never
acknowledged.  It must never be smaller than the acked set - that would be
a lost acknowledged write.)

Modes:
    crash    kill-9 loop over all crash points (default --snapshot-every
             traffic so the snapshot/rename points fire mid-stream)
    corpus   corrupt-log corpus: torn tail, bit-flipped CRC, zero-length
             segment, duplicate LSN - recovery must repair the first three
             shapes' recoverable variants and refuse the unrecoverable ones
             with a clear diagnostic; and an over-long idempotency id, which
             the daemon must refuse without breaking recovery
    all      both (default)

Usage:
    tools/chaos_recovery.py --server build/tools/smpmsf-server \
        --client build/tools/smpmsf-client [--workdir DIR] [--mode all]

Exit code 0 when every scenario behaves as specified, 1 otherwise.
"""

import argparse
import glob
import os
import shutil
import signal
import struct
import subprocess
import sys
import tempfile
import time

CRASH_SITES = [
    # (site:skip, needs frequent snapshots to be reachable mid-stream)
    ("persist.pre_append:3", False),
    ("persist.mid_append:3", False),
    ("persist.post_append:3", False),
    ("persist.pre_ack:3", False),
    # Skip past the open()'s initial snapshot so the crash lands on a
    # snapshot taken while acknowledged writes are in flight.
    ("persist.mid_snapshot:2", True),
    ("persist.mid_rename:2", True),
]

N_VERTICES = 60  # wire protocol is 1-based: vertices 1..60
MAX_SENDS = 40

FAILURES = []


def fail(msg):
    print(f"FAIL: {msg}")
    FAILURES.append(msg)


def gen_edges(count):
    """Deterministic simple edges with distinct weights (unique MSF)."""
    edges, seen, i = [], set(), 0
    while len(edges) < count:
        u = i % N_VERTICES + 1
        v = (i * 13 + 29) % N_VERTICES + 1
        i += 1
        key = (min(u, v), max(u, v))
        if u == v or key in seen:
            continue
        seen.add(key)
        edges.append((u, v, 1.0 + 0.001 * len(edges)))
    return edges


def kruskal(n, edges):
    """(total weight, tree count, frozenset of forest (u,v) pairs)."""
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    picked, weight = [], 0.0
    for u, v, w in sorted(edges, key=lambda e: e[2]):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            picked.append((min(u, v), max(u, v)))
            weight += w
    return weight, n - len(picked), frozenset(picked)


class Server:
    def __init__(self, binary, sock, data_dir, extra=()):
        self.proc = subprocess.Popen(
            [binary, "--socket", sock, "--data-dir", data_dir,
             "--fsync", "always", *extra],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        self.sock = sock

    def wait_exit(self, timeout=30):
        out, err = self.proc.communicate(timeout=timeout)
        return self.proc.returncode, out, err

    def terminate(self):
        self.proc.send_signal(signal.SIGTERM)
        return self.wait_exit()


def client_cmd(client, sock, cmd, retries=0):
    """One command over one connection; returns (rc, first response line)."""
    r = subprocess.run(
        [client, "--socket", sock, "-e", cmd, "--retries", str(retries)],
        capture_output=True, text=True)
    first = r.stdout.splitlines()[0] if r.stdout.splitlines() else ""
    return r.returncode, first


def client_lines(client, sock, cmd):
    r = subprocess.run([client, "--socket", sock, "-e", cmd],
                       capture_output=True, text=True)
    return r.returncode, r.stdout.splitlines()


def wait_health(client, sock, deadline_s=15):
    """Poll the health verb until the server answers (or time out)."""
    end = time.monotonic() + deadline_s
    while time.monotonic() < end:
        rc, line = client_cmd(client, sock, "health")
        if rc == 0 and line.startswith("ok "):
            return True
        time.sleep(0.05)
    return False


def parse_facts(line):
    """'ok weight=1.5 trees=3 forest=2 live=4 ...' -> dict of the k=v."""
    facts = {}
    for tok in line.split()[1:]:
        if "=" in tok:
            k, v = tok.split("=", 1)
            facts[k] = v
    return facts


def read_state(client, sock):
    rc, line = client_cmd(client, sock, "weight g")
    if rc != 0 or not line.startswith("ok"):
        return None
    facts = parse_facts(line)
    rc, lines = client_lines(client, sock, "edges g")
    if rc != 0:
        return None
    forest = frozenset(
        (min(int(t[1]), int(t[2])), max(int(t[1]), int(t[2])))
        for t in (ln.split() for ln in lines) if t and t[0] == "e")
    return {
        "weight": float(facts["weight"]),
        "trees": int(facts["trees"]),
        "live": int(facts["live"]),
        "forest": forest,
    }


def verify_against_prefix(tag, state, edges, acked, sent):
    live = state["live"]
    if not acked <= live <= sent:
        fail(f"{tag}: recovered {live} updates, acked {acked}, sent {sent}")
        return
    weight, trees, forest = kruskal(N_VERTICES, edges[:live])
    if abs(state["weight"] - weight) > 1e-9:
        fail(f"{tag}: weight {state['weight']} != scratch {weight}")
    if state["trees"] != trees:
        fail(f"{tag}: trees {state['trees']} != scratch {trees}")
    if state["forest"] != forest:
        fail(f"{tag}: forest differs from the scratch solve: "
             f"{sorted(state['forest'] ^ forest)}")


def crash_trial(args, site, with_snapshots):
    tag = f"crash[{site}]"
    data = os.path.join(args.workdir, "crash_" + site.replace(":", "_")
                        .replace(".", "_"))
    shutil.rmtree(data, ignore_errors=True)
    sock = os.path.join(args.workdir, "chaos.sock")
    extra = ("--snapshot-every", "2") if with_snapshots else ()
    srv = Server(args.server, sock, data, ("--crash-at", site, *extra))
    if not wait_health(args.client, sock):
        srv.proc.kill()
        fail(f"{tag}: server never became healthy")
        return
    rc, line = client_cmd(args.client, sock, f"open g n={N_VERTICES}")
    if rc != 0 or not line.startswith("ok"):
        srv.proc.kill()
        fail(f"{tag}: open failed: {line}")
        return

    edges = gen_edges(MAX_SENDS)
    acked = sent = 0
    for u, v, w in edges:
        sent += 1
        rc, line = client_cmd(args.client, sock,
                              f"insert g {u} {v} {w:.3f}")
        if rc == 0 and line.startswith("ok"):
            acked += 1
        else:
            break  # connection lost: the armed crash point fired
        if srv.proc.poll() is not None:
            break
    rc, out, err = srv.wait_exit()
    if rc != 137:
        fail(f"{tag}: expected kill-9 exit 137, got {rc} ({err.strip()})")
        return
    if sent == MAX_SENDS and acked == MAX_SENDS:
        fail(f"{tag}: the crash point never fired in {MAX_SENDS} writes")
        return

    srv = Server(args.server, sock, data, extra)
    if not wait_health(args.client, sock):
        srv.proc.kill()
        fail(f"{tag}: server did not recover")
        return
    state = read_state(args.client, sock)
    if state is None:
        srv.terminate()
        fail(f"{tag}: could not read recovered state")
        return
    verify_against_prefix(tag, state, edges, acked, sent)
    rc, out, err = srv.terminate()
    if rc != 0:
        fail(f"{tag}: graceful shutdown after recovery exited {rc}")
        return
    if "recovered session 'g'" not in out:
        fail(f"{tag}: restart printed no recovery note:\n{out}")
        return
    print(f"ok   {tag}: acked={acked} recovered={state['live']} sent={sent}")


def wal_segments(data, session="g"):
    return sorted(glob.glob(os.path.join(data, session, "wal-*.log")))


def wal_frames(path):
    """Offsets and sizes of the length-prefixed CRC-framed records."""
    frames = []
    with open(path, "rb") as f:
        buf = f.read()
    off = 0
    while off + 8 <= len(buf):
        (length,) = struct.unpack_from("<I", buf, off)
        if off + 8 + length > len(buf):
            break
        frames.append((off, 8 + length))
        off += 8 + length
    return buf, frames


def make_base_dir(args, name):
    """A durable session with several committed WAL records and no clean
    marker (the server is killed, not drained)."""
    data = os.path.join(args.workdir, name)
    shutil.rmtree(data, ignore_errors=True)
    sock = os.path.join(args.workdir, "chaos.sock")
    srv = Server(args.server, sock, data)
    if not wait_health(args.client, sock):
        srv.proc.kill()
        raise RuntimeError("corpus base: server never became healthy")
    edges = gen_edges(6)
    client_cmd(args.client, sock, f"open g n={N_VERTICES}")
    for u, v, w in edges:
        rc, line = client_cmd(args.client, sock, f"insert g {u} {v} {w:.3f}")
        if rc != 0 or not line.startswith("ok"):
            srv.proc.kill()
            raise RuntimeError(f"corpus base: insert failed: {line}")
    srv.proc.send_signal(signal.SIGKILL)
    srv.proc.wait()
    return data, edges


def expect_recovers(args, tag, data, edges, live, note=None):
    sock = os.path.join(args.workdir, "chaos.sock")
    srv = Server(args.server, sock, data)
    if not wait_health(args.client, sock):
        srv.proc.kill()
        fail(f"{tag}: server refused a recoverable directory")
        return
    state = read_state(args.client, sock)
    rc, out, err = srv.terminate()
    if state is None:
        fail(f"{tag}: could not read recovered state")
        return
    if state["live"] != live:
        fail(f"{tag}: recovered {state['live']} updates, want {live}")
        return
    verify_against_prefix(tag, state, edges, live, live)
    if note is not None and note not in out:
        fail(f"{tag}: expected recovery note containing '{note}':\n{out}")
        return
    print(f"ok   {tag}: recovered {live} updates")


def expect_refuses(args, tag, data, diagnostic):
    sock = os.path.join(args.workdir, "chaos.sock")
    srv = Server(args.server, sock, data)
    rc, out, err = srv.wait_exit()
    if rc != 3:
        srv.proc.kill()
        fail(f"{tag}: expected invalid-input exit 3, got {rc}")
        return
    if diagnostic not in err:
        fail(f"{tag}: diagnostic missing '{diagnostic}':\n{err}")
        return
    print(f"ok   {tag}: refused with '{diagnostic}' diagnostic")


def corpus_trials(args):
    # Torn tail: cut the last record in half - recovery truncates it and
    # serves the remaining prefix.
    data, edges = make_base_dir(args, "corpus_torn")
    seg = wal_segments(data)[-1]
    buf, frames = wal_frames(seg)
    off, size = frames[-1]
    with open(seg, "r+b") as f:
        f.truncate(off + size // 2)
    expect_recovers(args, "corpus[torn-tail]", data, edges, len(edges) - 1,
                    note="torn tail truncated")

    # Bit-flipped payload: a complete frame whose CRC fails is corruption,
    # and recovery must refuse rather than guess.
    data, edges = make_base_dir(args, "corpus_flip")
    seg = wal_segments(data)[-1]
    buf, frames = wal_frames(seg)
    off, size = frames[0]
    with open(seg, "r+b") as f:
        f.seek(off + 12)
        byte = f.read(1)
        f.seek(off + 12)
        f.write(bytes([byte[0] ^ 0x40]))
    expect_refuses(args, "corpus[bit-flip]", data, "corrupt WAL record")

    # Zero-length segment: a crash right at rotation leaves an empty file,
    # which is a valid empty tail - the snapshot state must serve.
    data, edges = make_base_dir(args, "corpus_zero")
    seg = wal_segments(data)[-1]
    with open(seg, "r+b") as f:
        f.truncate(0)
    expect_recovers(args, "corpus[zero-length]", data, edges, 0)

    # Duplicate LSN: replaying the same commit twice would double-apply, so
    # recovery must refuse the log.
    data, edges = make_base_dir(args, "corpus_dup")
    seg = wal_segments(data)[-1]
    buf, frames = wal_frames(seg)
    off, size = frames[-1]
    with open(seg, "ab") as f:
        f.write(buf[off:off + size])
    expect_refuses(args, "corpus[duplicate-lsn]", data, "duplicate")

    # Over-long idempotency id: 70,000 bytes would overflow the u16 the WAL
    # stores an id's length in, so the daemon refuses the write before it
    # is logged, and after a SIGKILL the directory recovers every base edge.
    data, edges = make_base_dir(args, "corpus_long_id")
    sock = os.path.join(args.workdir, "chaos.sock")
    srv = Server(args.server, sock, data)
    if not wait_health(args.client, sock):
        srv.proc.kill()
        fail("corpus[long-idem-id]: server never became healthy")
        return
    rc, line = client_cmd(args.client, sock,
                          f"insert g 1 2 0.5 id={'k' * 70000}")
    srv.proc.send_signal(signal.SIGKILL)
    srv.proc.wait()
    if not line.startswith("err invalid_input"):
        fail(f"corpus[long-idem-id]: want err invalid_input, got {line[:120]}")
        return
    expect_recovers(args, "corpus[long-idem-id]", data, edges, len(edges))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--server", default="build/tools/smpmsf-server")
    ap.add_argument("--client", default="build/tools/smpmsf-client")
    ap.add_argument("--workdir", default=None)
    ap.add_argument("--mode", choices=["crash", "corpus", "all"],
                    default="all")
    args = ap.parse_args()
    for b in (args.server, args.client):
        if not os.path.exists(b):
            print(f"error: binary not found: {b}")
            return 2
    owns_workdir = args.workdir is None
    if owns_workdir:
        args.workdir = tempfile.mkdtemp(prefix="smpmsf_chaos_")
    os.makedirs(args.workdir, exist_ok=True)

    try:
        if args.mode in ("crash", "all"):
            for site, with_snapshots in CRASH_SITES:
                crash_trial(args, site, with_snapshots)
        if args.mode in ("corpus", "all"):
            corpus_trials(args)
    finally:
        if owns_workdir:
            shutil.rmtree(args.workdir, ignore_errors=True)

    if FAILURES:
        print(f"\n{len(FAILURES)} scenario(s) failed")
        return 1
    print("\nall chaos scenarios passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
