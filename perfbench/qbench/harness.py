"""Builds qtls_bench and drives one server process and one load process."""

import json
import os
import random
import subprocess
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD_DIR, "qtls_bench")

OBJECT_BYTES = {"full_handshake": 1024, "resumed_handshake": 1024,
                "bulk_download": 1 << 20}
PROBE_BYTES = 1024


class BenchError(Exception):
    """A run that must exit non-zero, with the reason."""


def build():
    """Configures and builds qtls_bench from the checkout's sources."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no QTLS sources (src/CMakeLists.txt) in " + ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                          "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target", "qtls_bench",
                      "-j", str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                raise BenchError("build failed: see " + log_path)


def write_objects(run_dir, workload, seed):
    """The served files, made from the seed (bulk_download only)."""
    root = os.path.join(run_dir, "www")
    os.makedirs(root, exist_ok=True)
    rng = random.Random(seed)
    paths = {"bulk": os.path.join(root, "bulk.bin"),
             "probe": os.path.join(root, "probe.bin")}
    with open(paths["bulk"], "wb") as f:
        f.write(rng.randbytes(OBJECT_BYTES["bulk_download"]))
    with open(paths["probe"], "wb") as f:
        f.write(rng.randbytes(PROBE_BYTES))
    return root, paths


def _expect(proc, prefix, who):
    line = proc.stdout.readline()
    if not line.startswith(prefix):
        raise BenchError("%s: expected %r, got %r" % (who, prefix, line.strip()))
    return line.split()[1:]


class Server:
    """One server process; `launched` is taken just before it is spawned."""

    def __init__(self, workload, seed, trace, file_root, out):
        self.out = out
        self.launched = time.monotonic()
        cmd = [EXE, "serve", "--workload", workload, "--seed", str(seed),
               "--trace", "1" if trace else "0", "--out", out]
        if file_root:
            cmd += ["--file-root", file_root]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, bufsize=1)
        self.port = int(_expect(self.proc, "READY", "server")[0])

    def mark(self):
        self.proc.stdin.write("MARK\n")
        self.proc.stdin.flush()
        _expect(self.proc, "MARKED", "server")

    def stop(self):
        """Drains the server; raises unless every drain check held."""
        self.proc.stdin.close()
        code = self.proc.wait()
        self.proc.stdout.close()
        if code != 0:
            raise BenchError("server exited %d (drain checks failed, see stderr)" % code)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if not pipe.closed:
                pipe.close()


class Load:
    def __init__(self, workload, seed, seconds, warmup, paths, out, requests=0):
        cmd = [EXE, "load", "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--warmup", repr(warmup), "--out", out,
               "--object", paths["bulk"], "--probe", paths["probe"],
               "--requests", str(requests)]
        self.out = out
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, bufsize=1)

    def probe(self, port):
        self.proc.stdin.write("PROBE %d\n" % port)
        self.proc.stdin.flush()
        verdict = _expect(self.proc, "PROBED", "load")
        if verdict[:1] != ["ok"]:
            raise BenchError("set-up probe failed: " + " ".join(verdict[1:]))

    def run(self, server):
        """Runs the window, relaying the load's window marks to the server."""
        self.proc.stdin.write("RUN %d %d\n" % (server.port, server.proc.pid))
        self.proc.stdin.flush()
        while True:
            line = self.proc.stdout.readline()
            if line.startswith("MARK"):
                server.mark()
            elif line.startswith("DONE"):
                return line.split()[1] == "ok"
            elif not line:
                raise BenchError("load process exited mid-run")

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        if self.proc.returncode != 0:
            raise BenchError("load process exited %d" % self.proc.returncode)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if not pipe.closed:
                pipe.close()


def measure(workload, seed, seconds, warmup, setups, trace, run_dir,
            requests=0):
    """Set-up `setups` times, then one measured window on the last server.

    Returns (setup times in s, server JSON, load JSON, load pass flag).
    Every server, the thrown-away set-up ones included, must drain cleanly.
    With `requests`, each client stops after that many responses instead.
    """
    os.makedirs(run_dir, exist_ok=True)
    file_root, paths = write_objects(run_dir, workload, seed)
    served_root = file_root if workload == "bulk_download" else ""
    load = Load(workload, seed, seconds, warmup, paths,
                os.path.join(run_dir, "load.json"), requests)
    server = None
    try:
        setup_times = []
        for i in range(setups):
            server = Server(workload, seed, trace, served_root,
                            os.path.join(run_dir, "server%d.json" % i))
            load.probe(server.port)
            setup_times.append(time.monotonic() - server.launched)
            if i + 1 < setups:
                server.stop()
        load_ok = load.run(server)
        load.close()
        server.stop()
    finally:
        load.kill()
        if server is not None:
            server.kill()
    with open(server.out) as f:
        server_json = json.load(f)
    server_json["path"] = server.out  # traced: the span arrays sit beside it
    with open(load.out) as f:
        load_json = json.load(f)
    return setup_times, server_json, load_json, load_ok
