#!/usr/bin/env python3
"""Smoke one example through its live observer endpoint (stdlib only).

    http_smoke.py EXAMPLE --port N
        (--until PATH:SUBSTR | --until-json PATH:EXPR)
        [--settle SECONDS]
        [--expect PATH:SUBSTR ...] [--expect-json PATH:EXPR ...]
        [--signal TERM|INT]

Starts ``python EXAMPLE`` with ``REPRO_OBS_PORT=N`` (the rest of the
environment — ``PYTHONPATH``, the example's own ``REPRO_*`` knobs — is
inherited), polls ``http://127.0.0.1:N/PATH`` once a second for up to
60 s until the ``--until`` check holds, sleeps ``--settle``, runs every
``--expect`` check, then signals the example. ``SUBSTR`` must occur in the
body; ``EXPR`` is a Python expression over ``d``, the body parsed as JSON,
and must be truthy. With ``--signal INT`` the example must then exit 0 (a
clean shutdown is part of the contract); ``TERM`` just stops it.

Exit code 0 = every check held; a failed check prints which and exits 1.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
import urllib.request


def fetch(port, path):
    url = f"http://127.0.0.1:{port}{path}"
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.read().decode("utf-8", errors="replace")


def holds(port, check, as_json):
    """Whether ``PATH:SUBSTR`` / ``PATH:EXPR`` holds right now."""
    path, _, want = check.partition(":")
    body = fetch(port, path)
    if as_json:
        return bool(eval(want, {"d": json.loads(body)}))
    return want in body


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("example")
    ap.add_argument("--port", type=int, required=True)
    ready = ap.add_mutually_exclusive_group(required=True)
    ready.add_argument("--until")
    ready.add_argument("--until-json")
    ap.add_argument("--settle", type=float, default=0.0)
    ap.add_argument("--expect", action="append", default=[])
    ap.add_argument("--expect-json", action="append", default=[])
    ap.add_argument("--signal", choices=("TERM", "INT"), default="TERM")
    args = ap.parse_args()

    env = dict(os.environ, REPRO_OBS_PORT=str(args.port))
    # own process group, so pool/fleet workers the example forked die too
    proc = subprocess.Popen([sys.executable, args.example], env=env,
                            start_new_session=True)
    try:
        until = args.until or args.until_json
        for waited in range(1, 61):
            if proc.poll() is not None:
                sys.exit(f"{args.example} exited {proc.returncode} "
                         f"before {until!r} held")
            try:
                if holds(args.port, until, as_json=bool(args.until_json)):
                    print(f"{until!r} held after {waited}s")
                    break
            except Exception:       # not listening yet, body not JSON yet
                pass
            time.sleep(1)
        else:
            sys.exit(f"{until!r} never held within 60s")
        time.sleep(args.settle)
        checks = ([(c, False) for c in args.expect]
                  + [(c, True) for c in args.expect_json])
        for check, as_json in checks:
            if not holds(args.port, check, as_json):
                sys.exit(f"check failed: {check!r}")
            print(f"ok: {check}")
        proc.send_signal(getattr(signal, "SIG" + args.signal))
        code = proc.wait(timeout=60)
        if args.signal == "INT" and code != 0:
            sys.exit(f"{args.example} exited {code} on SIGINT, expected 0")
        print(f"{args.example} stopped on SIG{args.signal} (exit {code})")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


if __name__ == "__main__":
    main()
