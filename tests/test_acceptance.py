"""End-to-end behavioral gates for the whole package.

Every test prints one ``[PASS]``/``[FAIL]`` line with the measured
numbers (visible under plain ``pytest``), then asserts.  Tolerances are
part of each check's contract; the helper scripts that froze the
expected values live in the test bodies themselves, driven only through
public interfaces.
"""

from __future__ import annotations

import math
import random
from collections import Counter, defaultdict
from fractions import Fraction

import pytest

from accelbrake.core import Ack, EcnCodepoint, Packet
from accelbrake.engine import FlowSpec, HopSpec, ShortFlowLoad, Simulation, Topology
from accelbrake.fluid import (FluidParams, fixed_point_rate, integrate,
                              self_consistent_fixed_point, settles)
from accelbrake.links import FixedLink, StepLink
from accelbrake.metrics import (delay_percentile, flow_throughputs, hop_delays_us,
                                jain_index, steady_window, utilization)
from accelbrake.router import (ABC_QUEUE, LEGACY_QUEUE, AbcParams, AbcRouter,
                               MarkerState)
from accelbrake.sender import AbcSender, lost_ack_drift, steady_state_window
from accelbrake.wifi import (LinkProfile, OverheadModel, estimate_capacity,
                             generate_mac_trace)

pytestmark = pytest.mark.slow


def _report(capsys, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


# ---------------------------------------------------------------------------
# 1. One round trip of constant feedback moves the window by 2wf.

def test_window_gain_single_rtt(capsys):
    worst = 0.0
    for w in (4, 16, 64):
        for f in (0.0, 0.25, 0.5, 1.0):
            sender = AbcSender("f", initial_window=w, base_rtt_us=10_000,
                               additive_increase=False)
            pkts = sender.start(0)
            assert len(pkts) == w
            n_accel = round(w * f)
            t = 100
            for i, pkt in enumerate(pkts):
                mark = EcnCodepoint.ACCEL if i < n_accel else EcnCodepoint.BRAKE
                sender.on_ack(Ack("f", pkt.seq, pkt.size_bytes, mark), t)
                t += 10
            worst = max(worst, abs(sender.w_abc - 2 * w * f))
    _report(capsys, "window-gain", worst <= 1.0,
            f"max |w_after - 2wf| = {worst:.3f} pkts (limit 1.0) "
            f"over w in {{4,16,64}}, f in {{0,.25,.5,1}}")


# ---------------------------------------------------------------------------
# 2. Under a constant fraction f the window settles at 1/(1-2f).
#
# Feedback is applied in 150-byte units: the window algebra is written in
# bytes, and at fixed points of only a couple of packets, whole-MTU
# feedback quantization (one-packet jumps against the window floor and
# the staleness cap) would drown the identity being checked.

def test_window_fixed_point_under_constant_fraction(capsys):
    chunk = 150
    results = []
    worst = 0.0
    for f in (0.0, 0.25, 0.4):
        sender = AbcSender("f", initial_window=10, base_rtt_us=10_000,
                           additive_increase=True)
        sender.start(0)
        quota = 0.0
        t = 100
        for _ in range(100):
            for seq in sorted(sender.unacked):
                size, _ = sender.unacked[seq]
                done = 0
                while done < size:
                    n = min(chunk, size - done)
                    done += n
                    quota += f
                    if quota >= 1.0:
                        quota -= 1.0
                        mark = EcnCodepoint.ACCEL
                    else:
                        mark = EcnCodepoint.BRAKE
                    acked = seq if done == size else seq - 1
                    sender.on_ack(Ack("f", acked, n, mark), t)
                    t += 1
        want = steady_state_window(f)
        worst = max(worst, abs(sender.w_abc - want))
        results.append(f"f={f}: {sender.w_abc:.2f} vs {want:.2f}")
    _report(capsys, "steady-state-window", worst <= 0.5,
            f"max |w - 1/(1-2f)| = {worst:.3f} pkts (limit 0.5); " + "; ".join(results))


# ---------------------------------------------------------------------------
# 3. The token bucket never over-spends accelerates and never promotes.

def test_accel_budget_over_random_marking(capsys):
    rng = random.Random(0)
    marker = MarkerState(token_limit=2.0)
    accels = 0
    budget = 0.0
    overshoot = float("-inf")
    promotions = 0
    for i in range(1_000_000):
        f = rng.random()
        was_accel = rng.random() < 0.7
        pkt = Packet("x", i, 1500,
                     EcnCodepoint.ACCEL if was_accel else EcnCodepoint.BRAKE, 0)
        out = marker.mark(pkt, f)
        if out.ecn is EcnCodepoint.ACCEL:
            accels += 1
            if not was_accel:
                promotions += 1
        budget += f
        overshoot = max(overshoot, accels - budget)
    ok = overshoot <= marker.token_limit and promotions == 0
    _report(capsys, "marking-budget", ok,
            f"max(accels - sum f) = {overshoot:.3f} (limit {marker.token_limit}), "
            f"brake promotions = {promotions} over 1e6 packets")


# ---------------------------------------------------------------------------
# 4. The delay equation converges inside its stability region and not
#    below it, and the converged rate stays within (eta*mu, mu].

def test_fluid_settling_and_rate_bounds(capsys):
    tau = 0.1
    details = []
    ok = True
    for delta, should_settle in ((0.07, True), (0.1, True), (0.2, True), (0.01, False)):
        params = FluidParams(eta=0.98, delta_s=delta, target_delay_s=0.05,
                             n_flows=16, mu_bps=24e6, tau_s=tau, ai_interval_s=tau)
        t, x = integrate(params, horizon_s=12.0)
        x_star = params.drift * delta + 0.05
        settled = settles(t, x, x_star, tail_s=2.0)
        if should_settle:
            final_err = abs(x[-1] - x_star) / x_star
            rate = fixed_point_rate(params)
            good = settled and final_err <= 0.01 and 0.98 * 24e6 < rate <= 24e6
            details.append(f"delta={delta}: settled, end err {final_err:.2%}, "
                           f"r*={rate / 1e6:.2f} Mbit/s")
        else:
            good = not settled
            details.append(f"delta={delta}: no settling (as required)")
        ok = ok and good
    _report(capsys, "fluid-stability", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 5. Packet-level runs land on the fluid fixed point (rate and delay).

def test_packet_sim_matches_fluid_fixed_point(capsys):
    ok = True
    details = []
    for n in (1, 4, 16):
        x_star, r_star = self_consistent_fixed_point(0.98, 0.133, 0.05, n, 24e6, 0.1)
        hops = [HopSpec("btl", FixedLink(24e6), kind="abc")]
        flows = [FlowSpec(f"f{i}", "abc", fwd_delay_us=50_000, rev_delay_us=50_000)
                 for i in range(n)]
        log = Simulation(Topology(hops, flows), int(60e6), seed=7).run()
        s, e = steady_window(log)
        rate = sum(flow_throughputs(log, s, e).values())
        delays = hop_delays_us(log, "btl", s, e)
        mean_delay_s = sum(delays) / len(delays) / 1e6
        rate_err = abs(rate - r_star) / r_star
        delay_diff = abs(mean_delay_s - x_star)
        # With an empty-queue fixed point the relative delay error is
        # meaningless; a 2 ms absolute corridor covers those cases.
        delay_ok = delay_diff <= max(0.05 * x_star, 0.002)
        ok = ok and rate_err <= 0.05 and delay_ok
        details.append(f"N={n}: rate err {rate_err:.2%}, delay "
                       f"{mean_delay_s * 1e3:.2f} vs {x_star * 1e3:.2f} ms")
    _report(capsys, "fluid-packet-agreement", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# 6. Same-RTT flows share a fixed link almost perfectly evenly.

def test_equal_rtt_fairness(capsys):
    worst = 1.0
    for n in range(2, 9):
        hops = [HopSpec("btl", FixedLink(24e6), kind="abc")]
        flows = [FlowSpec(f"f{i}", "abc", fwd_delay_us=20_000, rev_delay_us=30_000)
                 for i in range(n)]
        log = Simulation(Topology(hops, flows), int(60e6), seed=3).run()
        rates = flow_throughputs(log, int(20e6), int(60e6))
        worst = min(worst, jain_index(list(rates.values())))
    _report(capsys, "fairness", worst >= 0.95,
            f"min Jain index over N=2..8 flows = {worst:.4f} (limit 0.95)")


# ---------------------------------------------------------------------------
# 7. Long flows split a shared link evenly with legacy Cubic flows,
#    with and without a churning load of short transfers.

def test_legacy_coexistence_with_short_flows(capsys):
    def run_cell(load_frac: float, seed: int) -> float:
        fwd, rev = 5_000, 15_000
        params = AbcParams(delta_us=27_000, target_delay_us=10_000)
        hops = [HopSpec("shared", FixedLink(96e6), kind="abc",
                        buffer_pkts=250, abc_params=params)]
        flows = ([FlowSpec(f"abc{i}", "abc", fwd_delay_us=fwd, rev_delay_us=rev)
                  for i in range(3)] +
                 [FlowSpec(f"cubic{i}", "cubic", fwd_delay_us=fwd, rev_delay_us=rev)
                  for i in range(3)])
        shorts = ShortFlowLoad(96e6 * load_frac, 10_000, fwd, rev) if load_frac else None
        log = Simulation(Topology(hops, flows, shorts), int(40e6), seed=seed).run()
        s, e = steady_window(log)
        rates = flow_throughputs(log, s, e)
        abc = sum(v for k, v in rates.items() if k.startswith("abc"))
        cub = sum(v for k, v in rates.items() if k.startswith("cubic"))
        return 2 * abs(abc - cub) / (abc + cub)

    worst = 0.0
    cells = []
    for load in (0.0, 0.2, 0.4):
        for seed in (1, 2, 3):
            gap = run_cell(load, seed)
            worst = max(worst, gap)
            cells.append(f"{load:.0%}/s{seed}:{gap:.1%}")
    _report(capsys, "legacy-coexistence", worst <= 0.10,
            f"worst aggregate throughput gap = {worst:.1%} (limit 10%) "
            f"[{', '.join(cells)}]")


# ---------------------------------------------------------------------------
# 8. Two bottlenecks in series: the smaller marking fraction survives.

def test_serial_bottlenecks_echo_minimum_fraction(capsys):
    hops = [HopSpec("r1", FixedLink(24e6), kind="abc", fixed_fraction=0.35,
                    delay_to_next_us=5_000),
            HopSpec("r2", FixedLink(24e6), kind="abc", fixed_fraction=0.45)]
    flows = [FlowSpec("f0", "abc", fwd_delay_us=10_000, rev_delay_us=20_000)]
    sim = Simulation(Topology(hops, flows), int(20e6), seed=1)
    sender = sim.flows["f0"].sender
    marks: Counter = Counter()
    orig = sender.on_ack

    def counting(ack, now):
        marks[ack.echo_mark] += 1
        return orig(ack, now)

    sender.on_ack = counting
    sim.run()
    total = marks[EcnCodepoint.ACCEL] + marks[EcnCodepoint.BRAKE]
    frac = marks[EcnCodepoint.ACCEL] / total
    rel_err = abs(frac - 0.35) / 0.35
    _report(capsys, "serial-bottlenecks", rel_err <= 0.02,
            f"echoed accel fraction {frac:.4f} vs min(0.35, 0.45) = 0.35 "
            f"(rel err {rel_err:.2%}, limit 2%, n={total})")


# ---------------------------------------------------------------------------
# 9. A capacity step moves the bottleneck between an ABC hop and a
#    droptail hop; the flow must hold its fair share at the wired
#    bottleneck, keep the ABC queue short at the wireless one, and both
#    windows must respect the staleness cap throughout.

def test_bottleneck_handoff(capsys):
    hops = [HopSpec("wireless", StepLink([(0, 24e6), (20_000_000, 10e6)]),
                    kind="abc", delay_to_next_us=5_000),
            HopSpec("wired", FixedLink(16e6), kind="droptail", buffer_pkts=100)]
    flows = [FlowSpec("abc0", "abc", fwd_delay_us=10_000, rev_delay_us=20_000),
             FlowSpec("cub0", "cubic", fwd_delay_us=10_000, rev_delay_us=20_000)]
    sim = Simulation(Topology(hops, flows), int(40e6), seed=5)

    audit = {"violations": 0}
    for runtime in sim.flows.values():
        snd = runtime.sender

        def audited(ack, now, _s=snd, _orig=None):
            out = _s._audit_orig(ack, now)
            limit = 2.0 * max(_s.inflight, 1) + 1e-9
            windows = [_s.w_cubic]
            if isinstance(_s, AbcSender):
                windows.append(_s.w_abc)
            if any(w > limit for w in windows):
                audit["violations"] += 1
            return out

        snd._audit_orig = snd.on_ack
        snd.on_ack = audited

    log = sim.run()
    wired = flow_throughputs(log, int(2e6), int(19e6))
    share_err = abs(wired["abc0"] - 8e6) / 8e6
    delays = sorted(deq - enq for rec in log.deliveries if rec.flow_id == "abc0"
                    for hid, enq, deq in rec.hops
                    if hid == "wireless" and 22e6 <= deq <= 40e6)
    p95_us = delays[math.ceil(0.95 * len(delays)) - 1]
    caps = audit["violations"] + sum(r.sender.cap_violations for r in sim.flows.values())
    ok = share_err <= 0.15 and p95_us < 100_000 and caps == 0
    _report(capsys, "bottleneck-handoff", ok,
            f"wired-phase share err {share_err:.1%} (limit 15%), wireless-phase "
            f"p95 queue delay {p95_us / 1000:.1f} ms (limit 100 ms), "
            f"cap violations {caps}")


# ---------------------------------------------------------------------------
# 10. On a sawtooth link the protocol keeps the queue far shorter than a
#     droptail/Cubic baseline without giving up utilization.

def test_delay_ordering_on_sawtooth_link(capsys):
    schedule = []
    rates = [24, 20, 16, 12, 8, 12, 16, 20]
    for cycle in range(5):
        for i, r in enumerate(rates):
            schedule.append(((cycle * 8 + i) * 1_000_000, r * 1e6))

    def run(kind: str, scheme: str) -> tuple[float, int]:
        hops = [HopSpec("saw", StepLink(schedule), kind=kind, buffer_pkts=250)]
        flows = [FlowSpec("f0", scheme, fwd_delay_us=10_000, rev_delay_us=20_000)]
        log = Simulation(Topology(hops, flows), int(40e6), seed=2).run()
        return utilization(log, "saw"), delay_percentile(log, "saw", 0.95,
                                                         start=int(4e6))

    util_abc, p95_abc = run("abc", "abc")
    util_cub, p95_cub = run("droptail", "cubic")
    ok = p95_abc < p95_cub and util_abc > 0.9 * util_cub
    _report(capsys, "delay-ordering", ok,
            f"p95 {p95_abc / 1000:.1f} vs {p95_cub / 1000:.1f} ms, "
            f"utilization {util_abc:.3f} vs {util_cub:.3f} "
            f"(ratio {util_abc / util_cub:.3f}, limit 0.9)")


# ---------------------------------------------------------------------------
# 11. The MAC-trace estimator recovers true capacity where its safety cap
#     is not binding, and the per-frame service slope matches S/R.

def test_wifi_capacity_estimator(capsys):
    profiles = {
        "mid": LinkProfile(72e6, 16, 12_000, OverheadModel(1000, 200, 200)),
        "low": LinkProfile(24e6, 8, 8_000, OverheadModel(1500, 300, 300)),
        "high": LinkProfile(150e6, 32, 12_000, OverheadModel(800, 150, 150)),
    }
    ok = True
    details = []
    for name, prof in profiles.items():
        true_bps = prof.true_capacity()
        pooled = []
        worst_mean_err = 0.0
        tails_seen = 0
        for i, frac in enumerate((0.25, 0.5, 1.0, 1.5)):
            events = generate_mac_trace(prof, frac * true_bps, 15.0, seed=100 + i)
            pooled.extend(events)
            points = estimate_capacity(events)
            horizon = points[-1].time_us
            # Judge only where the 2x ramp-up cap is not the binding term;
            # at very light loads it binds everywhere and the estimate is
            # intentionally pinned near twice the delivered rate.
            tail = [p for p in points
                    if p.time_us >= horizon / 3 and p.capped_bps >= p.raw_bps]
            if not tail:
                continue
            tails_seen += 1
            mean = sum(p.capped_bps for p in tail) / len(tail)
            worst_mean_err = max(worst_mean_err, abs(mean - true_bps) / true_bps)
        by_batch = defaultdict(list)
        for ev in pooled:
            by_batch[ev.batch_frames].append(ev.inter_ack_us)
        xs, ys, ws = [], [], []
        for b, vals in sorted(by_batch.items()):
            # Single-frame batches absorb idle waits at light load; thin
            # bins are noise.
            if b == 1 or len(vals) < 50:
                continue
            xs.append(b)
            ys.append(sum(vals) / len(vals))
            ws.append(len(vals))
        wsum = sum(ws)
        xbar = sum(w * x for w, x in zip(ws, xs)) / wsum
        ybar = sum(w * y for w, y in zip(ws, ys)) / wsum
        slope = (sum(w * (x - xbar) * (y - ybar) for w, x, y in zip(ws, xs, ys))
                 / sum(w * (x - xbar) ** 2 for w, x in zip(ws, xs)))
        expected = prof.frame_bits / prof.phy_rate_bps * 1e6
        slope_err = abs(slope - expected) / expected
        good = tails_seen >= 3 and worst_mean_err <= 0.05 and slope_err <= 0.02
        ok = ok and good
        details.append(f"{name}: mean err {worst_mean_err:.2%}, "
                       f"slope err {slope_err:.2%}")
    _report(capsys, "wifi-estimator", ok,
            "; ".join(details) + " (limits 5% / 2%)")


# ---------------------------------------------------------------------------
# 12. Randomly dropped ACKs shrink the reaction proportionally but never
#     flip its direction.

def test_drift_under_lost_acks(capsys):
    rng = random.Random(11)
    w0 = 48
    ok = True
    details = []
    for f in (0.2, 0.8):
        for p in (0.5, 0.9):
            total = 0.0
            rounds = 400
            for _ in range(rounds):
                sender = AbcSender("f", initial_window=w0, base_rtt_us=10_000,
                                   additive_increase=False)
                # Give the companion window headroom so only the primary
                # window's reaction is measured.
                sender.cubic.cwnd = 1e9
                t = 100
                for pkt in sender.start(0):
                    if rng.random() >= p:
                        continue
                    mark = (EcnCodepoint.ACCEL if rng.random() < f
                            else EcnCodepoint.BRAKE)
                    sender.on_ack(Ack("f", pkt.seq, pkt.size_bytes, mark), t)
                    t += 10
                total += sender.w_abc - w0
            mean = total / rounds
            want = lost_ack_drift(f, p, w0)
            rel_err = abs(mean - want) / abs(want)
            good = (mean < 0) == (want < 0) and rel_err <= 0.20
            ok = ok and good
            details.append(f"f={f}/p={p}: {mean:+.1f} vs {want:+.1f} "
                           f"({rel_err:.1%})")
    _report(capsys, "lost-ack-drift", ok, "; ".join(details) + " (limit 20%)")


# ---------------------------------------------------------------------------
# 13. The periodic weight update equals an exact-arithmetic max-min
#     allocation, reconstructed independently from the same observations.

class _FixedView:
    def __init__(self, bps: float):
        self.bps = bps

    def capacity(self, now) -> float:
        return self.bps


def _oracle_weight(flows, capacity, headroom, alpha):
    """Expected ABC share after two identical observation epochs.

    Epoch one sees every flow once, so all traffic lands in the
    short-transfer aggregate; epoch two promotes every flow to a demand
    line with zero residue, leaving the aggregate at (1 - alpha) of the
    queue total.  Padded line demands then split the remaining capacity
    max-min fairly.  All arithmetic is exact rationals.
    """
    cap = Fraction(capacity)
    rates = {(tag, fid): Fraction(pkts * 1500 * 8 * 1_000_000, 100_000)
             for tag, fid, pkts in flows}
    total = {ABC_QUEUE: Fraction(0), LEGACY_QUEUE: Fraction(0)}
    for (tag, _), r in rates.items():
        total[tag] += r
    shorts = {t: (1 - Fraction(alpha)) * total[t] for t in total}
    demands, owners = [], []
    for key in sorted(rates):
        demands.append(rates[key] * Fraction(1.0 + headroom))
        owners.append(key[0])
    agg = shorts[ABC_QUEUE] + shorts[LEGACY_QUEUE]
    if agg > cap:
        scale = cap / agg
        shorts = {t: s * scale for t, s in shorts.items()}
        agg = cap
    alloc = [Fraction(0)] * len(demands)
    active = sorted(range(len(demands)), key=lambda i: (demands[i], i))
    remaining = cap - agg
    while active and remaining > 0:
        share = remaining / len(active)
        sat = [i for i in active if demands[i] <= share]
        if not sat:
            for i in active:
                alloc[i] = share
            break
        for i in sat:
            alloc[i] = demands[i]
            remaining -= demands[i]
        active = [i for i in active if demands[i] > share]
    grand_total = sum(alloc) + agg
    abc_share = shorts[ABC_QUEUE] + sum(
        a for a, o in zip(alloc, owners) if o == ABC_QUEUE)
    return float(min(Fraction(1), max(Fraction(0), abc_share / grand_total)))


def test_weight_update_matches_water_fill_oracle(capsys):
    rng = random.Random(42)
    worst = 0.0
    for _ in range(1000):
        n = rng.randint(1, 6)
        capacity = rng.uniform(1e6, 80e6)
        flows = [(rng.choice((ABC_QUEUE, LEGACY_QUEUE)), f"f{i}", rng.randint(1, 60))
                 for i in range(n)]
        router = AbcRouter("r", AbcParams(), _FixedView(capacity), buffer_pkts=2000)
        for epoch in range(2):
            base = epoch * 100_000
            for tag, fid, pkts in flows:
                ecn = (EcnCodepoint.ACCEL if tag == ABC_QUEUE
                       else EcnCodepoint.NOT_ECT)
                for k in range(pkts):
                    assert router.enqueue(Packet(fid, k, 1500, ecn, base),
                                          base + 10) is None
            while router.backlog():
                router.on_dequeue(base + 50_000)
            router.update_weights(base + 100_000)
        want = _oracle_weight(flows, capacity, router.params.demand_headroom,
                              router.params.demand_smoothing)
        worst = max(worst, abs(router.weight_abc - want))
    _report(capsys, "weight-allocation", worst <= 1e-9,
            f"max |router weight - exact oracle| = {worst:.2e} over 1000 "
            f"random instances (limit 1e-9)")
