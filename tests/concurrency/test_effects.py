"""Unit tests for the AST effect-inference engine."""

import textwrap

from repro.analysis.concurrency import (
    infer_module_effects,
    infer_package_effects,
    reachable_modules,
)


def infer(tmp_path, source, name="mod"):
    path = tmp_path / f"{name}.py"
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return infer_module_effects(path, name)


class TestSelfWrites:
    def test_assign_augassign_subscript_and_mutators(self, tmp_path):
        module = infer(tmp_path, """
            class C:
                def method(self):
                    self.a = 1
                    self.b += 2
                    self.c[3] = 4
                    self.d.append(5)
        """)
        fn = module.classes["C"].methods["method"]
        kinds = {w.attr: w.kind for w in fn.self_writes}
        assert kinds == {"a": "assign", "b": "augassign",
                        "c": "subscript", "d": "mutate:append"}

    def test_lockset_tracked_through_with_blocks(self, tmp_path):
        module = infer(tmp_path, """
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()

                def locked(self):
                    with self._lock:
                        self.x = 1
                    self.y = 2
        """)
        fn = module.classes["C"].methods["locked"]
        locks = {w.attr: set(w.locks) for w in fn.self_writes}
        assert locks["x"] == {"_lock"}
        assert locks["y"] == set()

    def test_guarded_by_decorator_preholds_the_lock(self, tmp_path):
        module = infer(tmp_path, """
            from repro.sync import guarded_by, make_lock

            class C:
                def __init__(self):
                    self._lock = make_lock("c")

                @guarded_by("_lock")
                def helper(self):
                    self.x = 1
        """)
        fn = module.classes["C"].methods["helper"]
        assert fn.guarded_by == "_lock"
        assert set(fn.self_writes[0].locks) == {"_lock"}

    def test_reads_are_collected(self, tmp_path):
        module = infer(tmp_path, """
            class C:
                def method(self):
                    if self.sealed:
                        return None
                    return self.items
        """)
        fn = module.classes["C"].methods["method"]
        assert fn.self_reads == {"sealed", "items"}


class TestClassDeclarations:
    def test_shared_state_literals(self, tmp_path):
        module = infer(tmp_path, """
            class C:
                SHARED_STATE = {"x": "_lock", "y": "<config>"}
        """)
        cls = module.classes["C"]
        assert cls.shared_state == {"x": "_lock", "y": "<config>"}
        assert cls.declared

    def test_lock_attrs_detected_for_all_factories(self, tmp_path):
        module = infer(tmp_path, """
            import threading
            from dataclasses import dataclass, field
            from repro.sync import make_lock

            @dataclass
            class D:
                _lock: object = field(default_factory=lambda: make_lock("d"))

            class C:
                _class_lock = threading.RLock()

                def __init__(self):
                    self._lock = threading.Lock()
                    self._made_lock = make_lock("c")
        """)
        assert module.classes["D"].lock_attrs == {"_lock"}
        assert module.classes["C"].lock_attrs == {
            "_class_lock", "_lock", "_made_lock"}

    def test_init_writes_recorded_as_construction(self, tmp_path):
        module = infer(tmp_path, """
            class C:
                def __init__(self):
                    self.a = 1

                def later(self):
                    self.b = 2
        """)
        cls = module.classes["C"]
        assert cls.init_attrs == {"a"}
        assert set(cls.noninit_writes()) == {"b"}


class TestModuleLevel:
    def test_global_rebinding_and_container_mutation(self, tmp_path):
        module = infer(tmp_path, """
            _cache = {}
            _count = 0

            def rebind():
                global _count
                _count += 1

            def mutate():
                _cache["k"] = 1
                _cache.update({})

            def shadowed():
                _cache = {}
                _cache["k"] = 1
        """)
        writes = {(fn.name, w.attr)
                  for fn in module.functions.values() for w in fn.global_writes}
        assert ("rebind", "_count") in writes
        assert ("mutate", "_cache") in writes
        assert ("shadowed", "_cache") not in writes

    def test_thread_locals_and_singletons(self, tmp_path):
        module = infer(tmp_path, """
            import threading

            class Pool:
                pass

            _local = threading.local()
            _pool = Pool()
        """)
        assert module.thread_locals == {"_local"}
        assert module.singletons["_pool"] == "Pool"

    def test_spawns_detected(self, tmp_path):
        module = infer(tmp_path, """
            from concurrent.futures import ThreadPoolExecutor

            def go(fn):
                with ThreadPoolExecutor(max_workers=2) as pool:
                    return pool.submit(fn)
        """)
        spawns = module.functions["go"].spawns
        assert any("ThreadPoolExecutor" in s for s in spawns)
        assert any("submit" in s for s in spawns)


class TestPackageInference:
    def test_repro_package_scope_covers_worker_paths(self):
        import repro
        from pathlib import Path

        modules = infer_package_effects(Path(repro.__file__).parent)
        scope = reachable_modules(modules)
        assert "repro.parallel.executor" in scope
        assert "repro.parallel.coordinator" in scope
        assert "repro.storage.buffer" in scope
        assert "repro.obs.metrics" in scope
        assert "repro.obs.tracer" in scope

    def test_real_declarations_visible(self):
        import repro
        from pathlib import Path

        modules = infer_package_effects(Path(repro.__file__).parent)
        buffer = modules["repro.storage.buffer"].classes["BufferManager"]
        assert buffer.shared_state["_frames"] == "_lock"
        assert buffer.shared_state["_pins"] == "_lock"
        assert buffer.lock_attrs == {"_lock"}
        session = modules["repro.obs.tracer"].classes["TraceSession"]
        assert session.shared_state["roots"] == "<thread-confined>"
        server = modules["repro.serve.server"].classes["ServerThread"]
        assert server.shared_state["_loop"] == "<barrier>"
