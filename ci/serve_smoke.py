#!/usr/bin/env python3
"""End-to-end smoke test for `ccured serve` driven through `ccured client`.

Starts a daemon with fault injection enabled, fires 200 mixed requests at
it (cure / status / explain, including 3 poisoned units that panic the
serving worker, 1 unit nested past the parser's limit, and 1
deadline-exceeding cure against a second daemon), and asserts that

  * every single request gets a terminal one-line JSON reply (no hangs,
    no dropped connections, exit codes only ever ok/error/busy),
  * the daemon survives the injected worker panics (healthy cures keep
    succeeding afterwards and the supervisor reports respawns),
  * the deadline-exceeding cure comes back `resource-exhausted` while
    the daemon stays up,
  * a unit nested 100 000 braces deep comes back as an `error` that names
    the parser's nesting limit, and the next healthy cure is still `ok`
    (a stack overflow would abort the whole daemon),
  * the warm unit-cache hit rate over the run is high (the mix re-cures
    the same units, so almost everything after the first pass must be
    served from the content-addressed cache).

Usage: ci/serve_smoke.py [path/to/ccured]
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

CCURED = sys.argv[1] if len(sys.argv) > 1 else "target/release/ccured"
POISON = "ci_poison_token"
TOTAL_REQUESTS = 200
POISONED = 3
NESTING_LIMIT = 256
DEEP_BRACES = 100_000

GOOD_TEMPLATE = """\
int work_{i}(int n) {{
  int buf[8];
  int acc = 0;
  for (int j = 0; j < 8; j = j + 1) {{
    buf[j] = j * {i};
    acc = acc + buf[j];
  }}
  return acc + n;
}}

int main(void) {{
  return work_{i}(3) > 0 ? 0 : 1;
}}
"""


def client(sock, *words, timeout=120):
    """One `ccured client` call; returns (exit_code, reply_line)."""
    proc = subprocess.run(
        [CCURED, "client", sock, *words],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout.strip()


def wait_for_socket(sock, proc, deadline=30.0):
    start = time.time()
    while time.time() - start < deadline:
        if os.path.exists(sock):
            return
        if proc.poll() is not None:
            raise SystemExit(f"daemon exited early: {proc.returncode}")
        time.sleep(0.05)
    raise SystemExit(f"daemon socket {sock} never appeared")


def assert_terminal(code, reply, what):
    assert code in (0, 1, 6), f"{what}: non-terminal exit code {code}: {reply!r}"
    assert reply and "\n" not in reply, f"{what}: reply is not one line: {reply!r}"
    status = json.loads(reply).get("status")
    assert status in ("ok", "error", "busy"), f"{what}: bad status {status!r}"
    return status


def main():
    tmp = tempfile.mkdtemp(prefix="ccured-serve-smoke-")
    try:
        run(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run(tmp):
    sock = os.path.join(tmp, "cc.sock")
    cache = os.path.join(tmp, "cache")

    good = []
    for i in range(5):
        path = os.path.join(tmp, f"good_{i}.c")
        with open(path, "w") as f:
            f.write(GOOD_TEMPLATE.format(i=i))
        good.append(path)

    deep = os.path.join(tmp, "deep.c")
    with open(deep, "w") as f:
        f.write("int main(void) " + "{" * DEEP_BRACES + "}" * DEEP_BRACES + "\n")

    poisoned = []
    for i in range(POISONED):
        path = os.path.join(tmp, f"poisoned_{i}.c")
        with open(path, "w") as f:
            f.write(f"int {POISON}_{i}(void) {{ return {i}; }}\n")
        poisoned.append(path)

    daemon = subprocess.Popen(
        [CCURED, "serve", sock, "--workers", "2", "--cache-dir", cache,
         "--fault-poison", POISON],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    wait_for_socket(sock, daemon)

    sent = 0
    outcomes = {"ok": 0, "error": 0, "busy": 0}

    # 1 deadline-exceeding cure against a second daemon whose per-unit
    # budget is zero, so the deadline deterministically trips at the
    # first stage boundary. The reply must be terminal and the daemon
    # must still answer `status` afterwards.
    dsock = os.path.join(tmp, "deadline.sock")
    ddaemon = subprocess.Popen(
        [CCURED, "serve", dsock, "--workers", "1", "--no-cache",
         "--deadline-ms", "0"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    wait_for_socket(dsock, ddaemon)
    code, reply = client(dsock, "cure", good[0])
    outcomes[assert_terminal(code, reply, "deadline cure")] += 1
    sent += 1
    assert "resource-exhausted" in reply, f"expected deadline verdict: {reply!r}"
    code, reply = client(dsock, "status")
    assert code == 0, f"deadline daemon down after timeout: {reply!r}"
    client(dsock, "shutdown")
    ddaemon.wait(timeout=30)

    # 3 poisoned cures: each panics the serving worker. The reply must
    # still be terminal (the handler notices the dropped channel) and
    # the supervisor must respawn the worker.
    for path in poisoned:
        code, reply = client(sock, "cure", path)
        status = assert_terminal(code, reply, f"poisoned cure {path}")
        assert status == "error", f"poisoned cure was not an error: {reply!r}"
        sent += 1
        outcomes[status] += 1

    # 1 unit nested far past the parser's limit: a frontend error naming
    # the limit, after which the same daemon still cures a healthy unit.
    code, reply = client(sock, "cure", deep)
    status = assert_terminal(code, reply, "deep cure")
    assert status == "error", f"deep cure was not an error: {reply!r}"
    assert "nesting too deep" in reply and str(NESTING_LIMIT) in reply, reply
    outcomes[status] += 1
    sent += 1
    code, reply = client(sock, "cure", good[0])
    assert assert_terminal(code, reply, "cure after deep") == "ok", reply
    outcomes["ok"] += 1
    sent += 1

    # The remaining mixed traffic: cures over a small rotating unit set
    # (so the warm unit cache dominates), with status and explain
    # requests interleaved.
    while sent < TOTAL_REQUESTS:
        slot = sent % 8
        if slot < 5:
            words = ("cure", good[slot])
        elif slot == 5:
            words = ("status",)
        elif slot == 6:
            words = ("explain", good[0])
        else:
            words = ("cure", good[sent % len(good)])
        code, reply = client(sock, *words)
        outcomes[assert_terminal(code, reply, f"request #{sent}")] += 1
        sent += 1

    assert sent == TOTAL_REQUESTS, sent

    # The daemon must have survived the panics: healthy cures after the
    # poison must vastly outnumber the expected failures (the 3 injected
    # panics and the deep unit).
    expected_errors = POISONED + 1
    assert outcomes["ok"] >= TOTAL_REQUESTS - expected_errors - 10, outcomes
    assert outcomes["error"] >= expected_errors, outcomes

    # Pull the final stats. The supervisor poll runs every 20ms, so give
    # the respawn counter a moment to catch up.
    stats = None
    for _ in range(100):
        code, reply = client(sock, "status")
        assert code == 0, f"status failed: {reply!r}"
        stats = json.loads(reply)
        if stats.get("respawns", 0) >= POISONED:
            break
        time.sleep(0.05)
    assert stats["respawns"] >= 1, stats
    hits = stats["unit_cache"]["hits"]
    misses = stats["unit_cache"]["misses"]
    hit_rate = hits / max(1, hits + misses)
    assert hit_rate >= 0.9, f"warm hit rate too low: {hits}/{hits + misses}"

    code, reply = client(sock, "shutdown")
    assert code == 0, f"shutdown failed: {reply!r}"
    daemon.wait(timeout=30)
    assert daemon.returncode == 0, daemon.returncode

    print(
        f"serve-smoke ok: {sent} requests "
        f"({outcomes['ok']} ok / {outcomes['error']} error / "
        f"{outcomes['busy']} busy), "
        f"{stats['respawns']} respawns, "
        f"unit-cache hit rate {hit_rate:.2f}"
    )


if __name__ == "__main__":
    main()
