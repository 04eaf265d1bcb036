"""The benchmark's workloads, driven through sparsenet's public API.

Every workload has the same shape: ``setup`` generates inputs from the
seed and builds nets (timed several times for ``setup_s``), ``prep`` does
untimed preparation, ``rep`` is one repetition of the measured operation
and returns its samples, and ``finish`` runs the correctness checks and
any measurement that needs the finished result. Parameters come from
``plan.json``; nothing here sets BLAS or OpenMP thread counts, so the
program runs under the machine's default threading.

Calls go through module attributes (``training.train``, not a name bound
at import) so the traced run's class- and module-level patches see them.
"""

import copy
import hashlib
import multiprocessing
import os
import pickle
import resource
import time

import numpy as np

import sparsenet.checkpoint as checkpoint
import sparsenet.datasets as datasets
import sparsenet.memory as memory
import sparsenet.net as netmod
import sparsenet.protocols as protocols
import sparsenet.regularizers as regularizers
import sparsenet.synthetic as synthetic
import sparsenet.training as training

ENCODINGS = checkpoint.ENCODINGS


class Checks:
    """Counts attempted and failed operations and checks for one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def weight_bytes(net):
    return b"".join(l.weights.tobytes() + l.biases.tobytes() for l in net.param_layers())


def digest(net):
    return hashlib.sha256(weight_bytes(net)).hexdigest()


def build_net(p, seed):
    return netmod.TOPOLOGIES[p["topology"]](seed=seed, **p.get("init", {}))


def reg_specs(p):
    return {name: regularizers.RegSpec(**spec) for name, spec in p.get("reg", {}).items()}


def train_config(p, seed):
    return training.TrainConfig(
        batch_size=p["batch"], learning_rate=p["lr"], momentum=p["momentum"],
        max_iterations=p["iterations"], eval_interval=p["eval_interval"],
        eval_max=p["eval_max"], seed=seed,
    )


def make_data(p, seed):
    train_d, test_d = synthetic.make_synthetic_pair(
        p["n_train"], p["n_test"], shape=tuple(p["shape"]), noise=p["noise"], seed=seed)
    return datasets.subtract_mean(train_d, test_d)


def l0_caps_hold(net, caps):
    return all(int(np.count_nonzero(net.layer(name).weights)) <= t for name, t in caps.items())


def spec_caps(specs):
    return {name: s.t for name, s in specs.items() if s.kind == "l0_projection"}


class CheckpointBench:
    """Saves nets under every encoding and loads them into pre-built targets.

    Loading into an existing net times checkpoint decode alone, not net
    construction. Targets are built fresh rather than copied, so they carry
    no activation caches.
    """

    def __init__(self, nets, workdir, tracer):
        self.nets = nets
        self.workdir = workdir
        self.tracer = tracer
        self.targets = {enc: [netmod.TOPOLOGIES[n.topology]() for n in nets]
                        for enc in ENCODINGS}
        self.file_bytes = {enc: 0 for enc in ENCODINGS}

    def path(self, enc, k):
        return os.path.join(self.workdir, f"net{k}.{enc}.ckpt")

    def roundtrip(self):
        """Save then load every net under every encoding; returns load ms."""
        load_s = 0.0
        for enc in ENCODINGS:
            for k, net in enumerate(self.nets):
                with self.tracer.span(f"checkpoint.save.{enc}"):
                    checkpoint.save_checkpoint(net, self.path(enc, k), enc)
                t0 = time.perf_counter()
                with self.tracer.span(f"checkpoint.load.{enc}"):
                    checkpoint.load_checkpoint(self.path(enc, k), self.targets[enc][k])
                load_s += time.perf_counter() - t0
            self.file_bytes[enc] = sum(
                os.path.getsize(self.path(enc, k)) for k in range(len(self.nets)))
        return 1e3 * load_s

    def verify(self, checks, images):
        """Size = header + memory model; dense is bit-exact; every encoding
        reloads the same values and the same predict_probs output."""
        for k, net in enumerate(self.nets):
            rep = memory.report(net)
            probs = net.predict_probs(images[k])
            for enc in ENCODINGS:
                expect = checkpoint.checkpoint_overhead_bytes(net, enc) + sum(
                    memory.format_bytes(enc, r.param_count, r.nnz, rep.value_bytes)
                    for r in rep.layers)
                size = os.path.getsize(self.path(enc, k))
                checks.check(size == expect, f"net{k} {enc}: file {size} B != model {expect} B")
                loaded = self.targets[enc][k]
                if enc == "dense":
                    checks.check(weight_bytes(loaded) == weight_bytes(net),
                                 f"net{k} dense reload not bit-identical")
                same = all(np.array_equal(a.weights, b.weights)
                           and np.array_equal(a.biases, b.biases)
                           for a, b in zip(loaded.param_layers(), net.param_layers()))
                checks.check(same, f"net{k} {enc}: reloaded values differ")
                checks.check(np.array_equal(loaded.predict_probs(images[k]), probs),
                             f"net{k} {enc}: predict_probs of reloaded net differs")


def common_finish(net, images, workdir, p, checks, tracer):
    """Checkpoint and inference measurements on a workload's finished net."""
    bench = CheckpointBench([net], workdir, tracer)
    load_ms = [bench.roundtrip() for _ in range(p["ckpt_reps"])]
    bench.verify(checks, [images[: p["check_images"]]])
    rates = []
    for _ in range(p["predict_reps"]):
        t0 = time.perf_counter()
        probs = net.predict_probs(images)
        rates.append(len(images) / (time.perf_counter() - t0))
    checks.check(bool(np.all(np.isfinite(probs))), "predict_probs not finite")
    return {"ckpt_load_ms": load_ms, "predict_images_per_s": rates}, bench.file_bytes


class Workload:
    def __init__(self, p, workdir, tracer):
        self.p = p
        self.workdir = workdir
        self.tracer = tracer

    def prep(self, st):
        pass


class TrainWorkload(Workload):
    """``train()`` calls on a fresh copy of one initial net, repeated."""

    def setup(self, seed):
        train_d, test_d = make_data(self.p, seed)
        return {"train": train_d, "test": test_d, "net0": build_net(self.p, seed + 1),
                "cfg": train_config(self.p, seed + 2), "digests": []}

    def rep(self, st):
        net = copy.deepcopy(st["net0"])
        t0 = time.perf_counter()
        net, log = training.train(net, st["train"], st["cfg"], reg_specs=reg_specs(self.p),
                                  test_data=st["test"])
        dt = time.perf_counter() - t0
        st["net"], st["log"] = net, log
        st["digests"].append(digest(net))
        return {"images_per_s": self.p["iterations"] * self.p["batch"] / dt}

    def finish(self, st, checks):
        p, net, log = self.p, st["net"], st["log"]
        checks.check(len(set(st["digests"])) == 1, "repeated train() calls disagree")
        checks.check(all(np.isfinite(r.loss) for r in log.rows), "non-finite loss")
        checks.check(l0_caps_hold(net, spec_caps(reg_specs(p))), "l0 cap exceeded after train()")
        acc = log.rows[-1].test_acc
        checks.check(acc >= p["min_test_acc"], f"test_acc {acc} below {p['min_test_acc']}")
        samples, file_bytes = common_finish(net, st["test"].images, self.workdir, p, checks,
                                            self.tracer)
        return samples, {"test_acc": acc, "file_bytes": file_bytes}


def cpu_and_switches():
    """CPU seconds and involuntary context switches, self plus waited-for children."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime, s.ru_nivcsw + c.ru_nivcsw


class GreedyWorkload(Workload):
    """One ``greedy_sparsify`` round with one candidate per layer."""

    def setup(self, seed):
        p = self.p
        train_d, test_d = make_data(p, seed)
        train_part, val = datasets.split_validation(train_d, seed=seed, fraction=p["val_fraction"])
        return {"train": train_part, "val": val, "test": test_d,
                "base": build_net(p, seed + 1),
                "base_cfg": train_config({**p, **p["base"]}, seed + 2),
                "cand_cfg": train_config({**p, **p["candidate"]}, seed + 3),
                "fingerprints": [], "jobs1": []}

    def prep(self, st):
        st["base"], _ = training.train(st["base"], st["train"], st["base_cfg"],
                                       reg_specs=reg_specs(self.p["base"]))
        caps = {l.name: int(np.count_nonzero(l.weights)) for l in st["base"].param_layers()}
        bias = sum(l.biases.size for l in st["base"].param_layers())
        # greedy_sparsify cuts one layer's cap t to ceil(0.8 * t) per round; with
        # the smallest cut as the target gap, any adopted candidate reaches it,
        # so exactly one round runs (finish checks that it did)
        cut = [c - (4 * c + 4) // 5 for c in caps.values()]
        st["target"] = sum(caps.values()) + bias - min(cut)
        st["candidates"] = sum(1 for c in cut if c > 0)

    def round(self, st, jobs):
        cpu0, sw0 = cpu_and_switches()
        t0 = time.perf_counter()
        with self.tracer.span("protocols.greedy_round"):
            out = protocols.greedy_sparsify(
                st["base"], st["train"], st["val"], st["target"], st["cand_cfg"],
                projection_period=self.p["projection_period"], jobs=jobs)
        wall = time.perf_counter() - t0
        cpu1, sw1 = cpu_and_switches()
        return out, {"round_s": wall, "cpu_per_wall": (cpu1 - cpu0) / wall,
                     "invol_ctx_switches": sw1 - sw0}

    def rep(self, st):
        out, info = self.round(st, 1)
        st["out"] = out
        st["fingerprints"].append(self.fingerprint(out, self.layer_names(st)))
        if not self.tracer.active:
            # counters of untraced rounds only, like the untraced jobs=2 round
            st["jobs1"].append(info)
        images = st["candidates"] * self.p["candidate"]["iterations"] * self.p["batch"]
        return {"images_per_s": images / info["round_s"]}

    @staticmethod
    def layer_names(st):
        return [l.name for l in st["base"].param_layers()]

    @staticmethod
    def fingerprint(out, layer_names):
        net, plan, records = out
        return (plan.caps, protocols.candidate_log_csv(records, layer_names), weight_bytes(net))

    def finish(self, st, checks):
        p, tracer = self.p, self.tracer
        ref = st["fingerprints"][0]
        checks.check(all(f == ref for f in st["fingerprints"]), "repeated jobs=1 rounds disagree")
        adopted, plan, records = st["out"]
        checks.check(sum(r.round == 1 for r in records) == st["candidates"],
                     "round 1 did not try one candidate per layer")
        checks.check(max(r.round for r in records) == 1, "greedy ran more than one round")
        checks.check(l0_caps_hold(adopted, plan.caps), "adopted net exceeds its plan's caps")
        task_bytes = self.task_bytes(st, adopted, 2)
        samples, file_bytes = common_finish(adopted, st["test"].images, self.workdir, p, checks,
                                            tracer)
        acc = training.evaluate_accuracy(adopted, st["test"])
        # the jobs=2 round runs untraced: the forked workers' spans are out of scope
        traced = tracer.active
        tracer.uninstall()
        out2, jobs2 = self.round(st, 2)
        # ru_maxrss is in KiB on Linux; the workers are the only children
        jobs2["worker_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        if traced:
            tracer.install()
        checks.check(self.fingerprint(out2, self.layer_names(st)) == ref,
                     "jobs=2 round differs from jobs=1 (plan, candidate log or weights)")
        return samples, {"test_acc": acc, "file_bytes": file_bytes, "jobs2": jobs2,
                         "task_bytes": task_bytes, "candidates": st["candidates"],
                         "jobs1": st["jobs1"]}

    def task_bytes(self, st, adopted, jobs):
        """Pickled bytes a jobs=N round ships: one task per candidate and one
        (net, val_acc) result per candidate. The pool's initargs (the train
        and validation data) are pickled once per worker only when workers
        are not forked; a forked worker inherits them in memory."""
        specs = protocols.SparsityPlan(
            {l.name: l.weights.size for l in st["base"].param_layers()}).reg_specs(
                self.p["projection_period"])
        task = len(pickle.dumps((st["base"].clone(), st["cand_cfg"], specs)))
        result = len(pickle.dumps((adopted, 0.5)))
        shipped = st["candidates"] * (task + result)
        if multiprocessing.get_start_method() != "fork":
            shipped += jobs * len(pickle.dumps((st["train"], st["val"])))
        return shipped


class InferWorkload(Workload):
    """Sparse nets saved and reloaded under every encoding, then inference."""

    def caps(self, net):
        keep = self.p[net.topology]["keep"]
        return {l.name: max(1, int(keep[l.name] * l.weights.size)) for l in net.param_layers()}

    def _sparse(self, topo, seed):
        net = build_net(self.p[topo], seed)
        for name, t in self.caps(net).items():
            net.layer(name).weights = regularizers.l0_project(net.layer(name).weights, t)
        return net

    def setup(self, seed):
        p = self.p
        _, cifar_test = make_data(p["cifar_quick"], seed)
        _, lenet_test = make_data(p["lenet_small"], seed + 1)
        cifar = self._sparse("cifar_quick", seed + 2)
        members = [self._sparse("lenet_small", seed + 3 + i) for i in range(p["members"])]
        return {"cifar_test": cifar_test, "lenet_test": lenet_test, "cifar": cifar,
                "members": members}

    def prep(self, st):
        st["ckpt"] = CheckpointBench([st["cifar"]] + st["members"], self.workdir, self.tracer)

    def ensemble(self, members):
        plans = [protocols.SparsityPlan({l.name: int(np.count_nonzero(l.weights))
                                         for l in m.param_layers()}) for m in members]
        return protocols.EnsembleModel(members=members, plans=plans,
                                       budget=sum(m.nnz() for m in members))

    def rep(self, st):
        ckpt = st["ckpt"]
        load_ms = ckpt.roundtrip()
        # inference runs on the nets decoded from the sparse encodings
        cifar = ckpt.targets["indexed"][0]
        images = st["cifar_test"].images
        t0 = time.perf_counter()
        st["probs"] = cifar.predict_probs(images)
        predict = len(images) / (time.perf_counter() - t0)
        ens = self.ensemble(ckpt.targets["bitmask"][1:])
        images = st["lenet_test"].images
        t0 = time.perf_counter()
        st["pred"] = protocols.ensemble_predict(ens, images)
        rate = len(images) / (time.perf_counter() - t0)
        return {"images_per_s": rate, "predict_images_per_s": predict, "ckpt_load_ms": load_ms}

    def finish(self, st, checks):
        p, ckpt = self.p, st["ckpt"]
        n = p["check_images"]
        images = [st["cifar_test"].images[:n]] + [st["lenet_test"].images[:n]] * p["members"]
        ckpt.verify(checks, images)
        for k, net in enumerate(ckpt.nets):
            for enc in ENCODINGS:
                checks.check(l0_caps_hold(ckpt.targets[enc][k], self.caps(net)),
                             f"net{k} {enc}: reloaded net exceeds its l0 caps")
        direct = st["cifar"].predict_probs(st["cifar_test"].images)
        checks.check(np.array_equal(st["probs"], direct),
                     "cifar_quick predict_probs from checkpoint differs from in-memory net")
        direct = protocols.ensemble_predict(self.ensemble(st["members"]), st["lenet_test"].images)
        checks.check(np.array_equal(st["pred"], direct),
                     "ensemble_predict from checkpoints differs from in-memory members")
        acc = float(np.mean(st["pred"] == st["lenet_test"].labels))
        return {}, {"test_acc": acc, "file_bytes": dict(ckpt.file_bytes)}


KINDS = {"train": TrainWorkload, "greedy": GreedyWorkload, "infer": InferWorkload}
