#!/usr/bin/env python
"""Out-of-tree plugin smoke: target and mode discovery, end to end.

Authors a throwaway target module and a throwaway mode module in a
temporary directory — packages nobody in-tree knows about — then drives
the installed CLI in fresh subprocesses to prove both plugin paths work
without a single repo edit:

1. without ``CMFUZZ_TARGET_MODULES`` the catalogue must NOT list the
   plugin target (discovery is opt-in, not ambient);
2. with the variable set, ``python -m repro targets`` must list the
   plugin alongside every in-tree target;
3. ``python -m repro campaign --target plugin_smoke`` must run a short
   campaign against it and export positive coverage;
4. likewise ``python -m repro modes`` must list the plugin mode only
   when ``CMFUZZ_MODE_MODULES`` names its module, next to every in-tree
   mode;
5. ``python -m repro campaign --mode plugin_peach --target plugin_smoke``
   must run a short campaign with both plugins and export positive
   coverage.

Exits non-zero with a ``FAIL:`` line on the first broken promise. CI's
``target-plugin-smoke`` job runs this; it works locally too::

    PYTHONPATH=src python scripts/target_plugin_smoke.py
"""

import json
import os
import subprocess
import sys
import tempfile
import textwrap

#: The throwaway target. Deliberately self-contained: its only imports
#: are the public plugin surface an out-of-tree author would use, and it
#: registers with a plain dict manifest (no target.json on disk).
PLUGIN_MODULE = "cmfuzz_smoke_plugin"
PLUGIN_TARGET = "plugin_smoke"
PLUGIN_SOURCE = textwrap.dedent("""
    from repro.core.extraction import ConfigSources
    from repro.fuzzing.datamodel import Blob, DataModel, Number
    from repro.fuzzing.statemodel import Action, State, StateModel
    from repro.targets.base import ProtocolTarget
    from repro.targets.registry import register_target

    CONFIG_FILE = "port=9901\\nshout=false\\n"


    class PluginSmokeTarget(ProtocolTarget):
        NAME = "plugin_smoke"
        PROTOCOL = "ECHO"
        PORT = 9901

        @classmethod
        def config_sources(cls):
            return ConfigSources(files=(("plugin_smoke.conf", CONFIG_FILE),))

        @classmethod
        def default_config(cls):
            return {"port": 9901, "shout": False}

        def _startup_impl(self):
            self.cov.hit("startup.complete")
            self.cov.branch("startup.shout", self.enabled("shout"))

        def reset_session(self):
            pass

        def handle_packet(self, data):
            self.require_started()
            if not data:
                self.cov.hit("recv.empty")
                return b""
            self.cov.hit("recv.op.%d" % (data[0] % 4))
            self.cov.branch("recv.long", len(data) > 8)
            if self.enabled("shout"):
                return data.upper()
            return data


    def state_model():
        return StateModel(
            "plugin-smoke", "start",
            [State("start", [Action("send", "Ping")])
             .add_transition("finish", 1.0),
             State("finish")],
            [DataModel("Ping", [Number("op", 8, default=1),
                                Blob("payload", default=b"hello")])])


    register_target("plugin_smoke", PluginSmokeTarget, state_model, {
        "name": "plugin_smoke",
        "protocol": "ECHO",
        "description": "Throwaway out-of-tree target for the CI plugin smoke.",
        "port": 9901,
        "config_surface": {"format": "key-value file", "keys": 2},
    })
""")


#: The throwaway mode: an in-tree scheduler class registered under a new
#: name from a module only discovery knows about.
MODE_PLUGIN_MODULE = "cmfuzz_smoke_mode_plugin"
PLUGIN_MODE = "plugin_peach"
MODE_PLUGIN_SOURCE = textwrap.dedent("""
    from repro.parallel.peach import PeachParallelMode
    from repro.parallel.registry import register_mode

    register_mode("plugin_peach", PeachParallelMode,
                  "Throwaway out-of-tree mode for the CI plugin smoke.")
""")


def fail(message):
    print("FAIL: %s" % message)
    raise SystemExit(1)


def run_cli(args, env, cwd):
    proc = subprocess.run(
        [sys.executable, "-m", "repro"] + args,
        env=env, cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        fail("`repro %s` exited %d:\n%s\n%s"
             % (" ".join(args), proc.returncode, proc.stdout, proc.stderr))
    return proc.stdout


def in_tree_names(env, catalogue):
    """An in-tree catalogue (``"targets"`` or ``"modes"``), read in a
    subprocess WITHOUT the plugin discovery variables — the reference
    the plugins must not disturb."""
    reader = {"targets": "from repro.targets import target_names as names",
              "modes": "from repro.parallel import mode_names as names"}
    proc = subprocess.run(
        [sys.executable, "-c",
         "%s; print('\\n'.join(names()))" % reader[catalogue]],
        env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        fail("could not read the in-tree %s:\n%s" % (catalogue, proc.stderr))
    return [line for line in proc.stdout.splitlines() if line]


def check_catalogue(catalogue, plugin, variable, builtins, base_env,
                    plugin_env, cwd):
    """``repro <catalogue>`` lists ``plugin`` only with ``variable`` set,
    and then next to every in-tree entry."""
    table = run_cli([catalogue], base_env, cwd)
    if "`%s`" % plugin in table:
        fail("`repro %s` lists %r without %s set"
             % (catalogue, plugin, variable))
    table = run_cli([catalogue], plugin_env, cwd)
    for name in builtins + [plugin]:
        if "`%s`" % name not in table:
            fail("`repro %s` table is missing %r:\n%s"
                 % (catalogue, name, table))
    print("catalogue lists %d in-tree %s + %r"
          % (len(builtins), catalogue, plugin))


def check_campaign(mode, env, tmpdir):
    """A short campaign on the plugin target exports positive coverage."""
    export_path = os.path.join(tmpdir, "plugin_campaign_%s.json" % mode)
    run_cli(["campaign", "--target", PLUGIN_TARGET, "--mode", mode,
             "--instances", "2", "--hours", "1", "--seed", "3",
             "--no-cache", "--export", export_path],
            env, tmpdir)
    with open(export_path, encoding="utf-8") as handle:
        export = json.load(handle)
    if not export:
        fail("campaign export is empty")
    record = export[0]
    if record.get("target") != PLUGIN_TARGET:
        fail("export records target %r, expected %r"
             % (record.get("target"), PLUGIN_TARGET))
    coverage = record.get("final_coverage", 0)
    if not coverage or coverage <= 0:
        fail("campaign reported non-positive coverage %r" % coverage)
    print("%s campaign on %r exported final_coverage=%s"
          % (mode, PLUGIN_TARGET, coverage))


def main():
    base_env = {k: v for k, v in os.environ.items()
                if k not in ("CMFUZZ_TARGET_MODULES", "CMFUZZ_MODE_MODULES")}
    if base_env.get("PYTHONPATH"):
        # Subprocesses run from a temp dir; keep relative entries (the
        # local `PYTHONPATH=src` invocation) pointing at the repo.
        base_env["PYTHONPATH"] = os.pathsep.join(
            os.path.abspath(p)
            for p in base_env["PYTHONPATH"].split(os.pathsep) if p)
    targets = in_tree_names(base_env, "targets")
    modes = in_tree_names(base_env, "modes")
    if PLUGIN_TARGET in targets or PLUGIN_MODE in modes:
        fail("%r or %r is already in-tree; the smoke needs fresh names"
             % (PLUGIN_TARGET, PLUGIN_MODE))

    with tempfile.TemporaryDirectory(prefix="cmfuzz-plugin-") as tmpdir:
        for module, source in ((PLUGIN_MODULE, PLUGIN_SOURCE),
                               (MODE_PLUGIN_MODULE, MODE_PLUGIN_SOURCE)):
            with open(os.path.join(tmpdir, module + ".py"),
                      "w", encoding="utf-8") as handle:
                handle.write(source)

        base_env["PYTHONPATH"] = os.pathsep.join(
            p for p in (tmpdir, base_env.get("PYTHONPATH")) if p)
        target_env = dict(base_env, CMFUZZ_TARGET_MODULES=PLUGIN_MODULE)
        both_env = dict(target_env, CMFUZZ_MODE_MODULES=MODE_PLUGIN_MODULE)

        # 1-3. The target plugin: opt-in discovery, then a campaign.
        check_catalogue("targets", PLUGIN_TARGET, "CMFUZZ_TARGET_MODULES",
                        targets, base_env, target_env, tmpdir)
        check_campaign("cmfuzz", target_env, tmpdir)

        # 4-5. The mode plugin, the same way, then both plugins at once.
        check_catalogue("modes", PLUGIN_MODE, "CMFUZZ_MODE_MODULES",
                        modes, target_env, both_env, tmpdir)
        check_campaign(PLUGIN_MODE, both_env, tmpdir)

    print("plugin smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
