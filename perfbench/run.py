#!/usr/bin/env python3
"""Build and run the repository's benchmark from the root of a checkout.

    python3 perfbench/run.py --workload native-map-rw50 --seed 1 --seconds 20 --trace 0

The Go package next to this file is built into the build directory
($CARGO_TARGET_DIR, default .bench_build) with every Go cache kept there
too, then run from the checkout's root with the arguments given here. The
exit status is the benchmark's. Without the repository's sources around
it the build fails and this exits non-zero without printing a result.
"""
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """A digest of the Go sources, standing in for a commit id when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for top, dirs, files in os.walk(ROOT):
        dirs[:] = sorted(d for d in dirs if not d.startswith("."))
        for name in sorted(files):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(top, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def commit():
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return source_digest()


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("run.py: no go.mod at %s: not a checkout of the repository" % ROOT, file=sys.stderr)
        return 2
    env = dict(os.environ,
               GOCACHE=os.path.join(build, "gocache"),
               GOPATH=os.path.join(build, "gopath"),
               GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
               XDG_CONFIG_HOME=os.path.join(build, "config"),
               GOENV="off", GOTOOLCHAIN="local", GOFLAGS="", GOWORK="off")
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("run.py: go build failed", file=sys.stderr)
        return built.returncode
    proc = subprocess.Popen([binary, "-commit", commit()] + sys.argv[1:], cwd=ROOT, env=env)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main())
