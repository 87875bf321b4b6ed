//! `backbone`: 64 plain brokers on the epidemic fabric (HyParView +
//! Plumtree + anti-entropy + SWIM), driven inline on one thread with no
//! crypto.
//!
//! A fixed population of owners (two per broker) refreshes advertisements
//! from their home brokers in a seeded order, so publish origins are spread
//! over every broker; each publish is pumped to quiescence.  After every 8
//! publishes comes a repair tick: `start_repair_round` on every broker, then
//! `pump`.  step1 = one publish (index_and_distribute + pump), step2 = the
//! tick's exchange (its `pump`), step3 = the tick's round start
//! (`start_repair_round` on every broker: digests and probes).  An "op" is
//! one publish, with its share of tick traffic and time.
//!
//! Timings are probe-normalized like the other workloads.  Backbone cycles
//! slow somewhat less than the probe when the host slows, so a slow stretch
//! is slightly over-corrected; across seeds on the calibration host the
//! normalized medians still spread 2-4x less than the raw ones.

use crate::layers::{self, Capture};
use crate::report::Report;
use crate::timing::{self, ms_since, Phase, SplitMix};
use crate::trace::Tracer;
use crate::Args;
use jxta_overlay::broker::{Broker, BrokerConfig};
use jxta_overlay::federation::InlineFederation;
use jxta_overlay::metrics::FederationStats;
use jxta_overlay::{GroupId, LinkModel, MessageKind, PeerId, SimNetwork, UserDatabase};
use std::sync::Arc;
use std::time::Instant;

/// 64 rather than E8's 128: at 128 brokers one repair tick of this
/// workload takes ~450 ms on a 2-vCPU host and reaches steady state only
/// after ~45 s, which the benchmark's run budget cannot hold.  64 brokers
/// keep the epidemic fabric engaged (active view 8) and show the same
/// multi-origin delivery defect.
const BROKERS: usize = 64;
const OWNERS_PER_BROKER: usize = 2;
const CYCLE: usize = 8;
const GROUP: &str = "bench";
const DOC_TYPE: &str = "jxta:PipeAdvertisement";
/// Broker ids (and so the overlay topology) are fixed; the seed chooses the
/// publish order and contents.
const TOPOLOGY_SEED: u64 = 0xBAC0_0001;
const SETUP_REPS: usize = 3;
/// Untimed cycles before timing.  Tick cost grows while the index fills
/// (every owner has published by cycle 16) and the repair state settles,
/// and is flat from about cycle 40 on.  Filling the Plumtree seen-set and
/// graft cache (4096 broadcasts, 512 cycles) would take over a minute, so
/// the timed loop runs before that bound is reached.
const WARMUP_CYCLES: usize = 48;
/// Cycles whose traffic the count metrics cover.
const COUNT_CYCLES: usize = 128;
const CONVERGE_ROUNDS: usize = 8;

struct World {
    fed: InlineFederation,
    network: Arc<SimNetwork>,
    owners: Vec<(PeerId, usize)>,
    interconnect_ms: f64,
}

fn build() -> Result<World, String> {
    let mut rng = jxta_crypto::HmacDrbg::from_seed_u64(TOPOLOGY_SEED);
    let network = SimNetwork::new(LinkModel::ideal());
    let database = Arc::new(UserDatabase::new());
    let brokers: Vec<Arc<Broker>> = (0..BROKERS)
        .map(|i| {
            Broker::new(
                PeerId::random(&mut rng),
                BrokerConfig::named(format!("broker-{i}")),
                Arc::clone(&network),
                Arc::clone(&database),
            )
        })
        .collect();
    let t = Instant::now();
    let fed = InlineFederation::new(brokers);
    fed.pump();
    let interconnect_ms = ms_since(t);
    let owners = (0..BROKERS * OWNERS_PER_BROKER)
        .map(|o| (PeerId::random(&mut rng), o % BROKERS))
        .collect();
    Ok(World {
        fed,
        network,
        owners,
        interconnect_ms,
    })
}

/// Seeded publish schedule: every owner once per round, in shuffled order.
struct Schedule {
    rng: SplitMix,
    order: Vec<usize>,
    next: usize,
    salt: String,
    published: u64,
}

impl Schedule {
    fn new(seed: u64, owners: usize) -> Self {
        let mut rng = SplitMix::new(seed);
        let salt = format!("{:016x}", rng.next_u64());
        Schedule {
            rng,
            order: (0..owners).collect(),
            next: owners,
            salt,
            published: 0,
        }
    }

    fn next(&mut self) -> (usize, String) {
        if self.next == self.order.len() {
            self.rng.shuffle(&mut self.order);
            self.next = 0;
        }
        let owner = self.order[self.next];
        self.next += 1;
        self.published += 1;
        let xml = format!(
            "<jxta:PipeAdvertisement owner=\"{owner}\" version=\"{:010}\" salt=\"{}\"/>",
            self.published, self.salt
        );
        (owner, xml)
    }
}

fn sum(fed: &InlineFederation) -> FederationStats {
    let mut total = FederationStats::default();
    for b in 0..fed.len() {
        let s = fed.broker(b).federation_stats();
        total.eager_pushes += s.eager_pushes;
        total.ihaves_sent += s.ihaves_sent;
        total.grafts_sent += s.grafts_sent;
        total.prunes_sent += s.prunes_sent;
        total.graft_misses += s.graft_misses;
        total.syncs_sent += s.syncs_sent;
        total.rejected_unknown_origin += s.rejected_unknown_origin;
        total.rejected_replayed += s.rejected_replayed;
        total.entries_repaired += s.entries_repaired;
        total.repair_pages += s.repair_pages;
        total.swim_probes += s.swim_probes;
        total.swim_suspicions += s.swim_suspicions;
    }
    total
}

#[derive(Default)]
struct Outcome {
    publishes: u64,
    covered: u64,
    complete_after_tick: u64,
    msgs: f64,
    bytes: f64,
    /// Tick traffic over the whole phase and over the count window.
    tick_msgs_total: u64,
    tick_bytes_total: u64,
    tick_msgs: f64,
    tick_bytes: f64,
    counters: FederationStats,
}

/// How many brokers hold `xml` as `owner`'s advertisement.
fn holders(w: &World, owner: PeerId, xml: &str) -> u64 {
    let group = GroupId::new(GROUP);
    (0..w.fed.len())
        .filter(|&b| {
            let held = w.fed.broker(b).lookup(&group, DOC_TYPE, Some(owner));
            held.len() == 1 && held[0] == xml
        })
        .count() as u64
}

fn cycle(
    w: &World,
    schedule: &mut Schedule,
    tracer: &mut Tracer,
    phase: Option<&mut Phase>,
    out: &mut Outcome,
    latest: &mut [String],
) {
    let group = GroupId::new(GROUP);
    let mut publish_ms = Vec::with_capacity(CYCLE);
    let mut written = Vec::with_capacity(CYCLE);
    for _ in 0..CYCLE {
        let (o, xml) = schedule.next();
        let (owner, home) = w.owners[o];
        let t = Instant::now();
        let open = tracer.begin("publish");
        tracer.span("index_and_distribute", || {
            w.fed
                .broker(home)
                .index_and_distribute(owner, &group, DOC_TYPE, &xml)
        });
        tracer.span("pump", || w.fed.pump());
        tracer.end(open);
        publish_ms.push(ms_since(t));
        out.covered += holders(w, owner, &xml);
        out.publishes += 1;
        latest[o] = xml;
        written.push(o);
    }

    let tick_before = w.network.stats();
    let open = tracer.begin("tick");
    let t = Instant::now();
    for b in 0..w.fed.len() {
        tracer.span("start_repair_round", || {
            w.fed.broker(b).start_repair_round()
        });
    }
    let round_ms = ms_since(t);
    let t = Instant::now();
    tracer.span("pump", || w.fed.pump());
    let exchange_ms = ms_since(t);
    tracer.end(open);
    let tick_after = w.network.stats();
    out.tick_msgs_total += tick_after.messages_sent - tick_before.messages_sent;
    out.tick_bytes_total += tick_after.bytes_sent - tick_before.bytes_sent;

    // Untimed check: which of this cycle's publishes are now everywhere.
    out.complete_after_tick += written
        .iter()
        .filter(|&&o| holders(w, w.owners[o].0, &latest[o]) == BROKERS as u64)
        .count() as u64;

    if let Some(phase) = phase {
        // The cycle's own work: publishes and tick, not the checks.
        let wall = publish_ms.iter().sum::<f64>() + round_ms + exchange_ms;
        for ms in publish_ms {
            phase.record([ms, f64::NAN, f64::NAN], 0.0, 0.0);
        }
        phase.record([f64::NAN, exchange_ms, round_ms], wall, CYCLE as f64);
    }
}

fn measure(
    w: &World,
    schedule: &mut Schedule,
    latest: &mut [String],
    seconds: f64,
    tracer: &mut Tracer,
) -> (Phase, Outcome) {
    let mut phase = Phase::default();
    let mut out = Outcome::default();
    let net_before = w.network.stats();
    let counters_before = sum(&w.fed);
    let start = Instant::now();
    let mut c = 0usize;
    while c < COUNT_CYCLES || start.elapsed().as_secs_f64() < seconds {
        tracer.set_op(c as u64);
        cycle(w, schedule, tracer, Some(&mut phase), &mut out, latest);
        c += 1;
        if c == COUNT_CYCLES {
            out.tick_msgs = out.tick_msgs_total as f64;
            out.tick_bytes = out.tick_bytes_total as f64;
            let now = w.network.stats();
            let n = out.publishes as f64;
            out.msgs = (now.messages_sent - net_before.messages_sent) as f64 / n;
            out.bytes = (now.bytes_sent - net_before.bytes_sent) as f64 / n;
            let counters = sum(&w.fed);
            out.counters = FederationStats {
                eager_pushes: counters.eager_pushes - counters_before.eager_pushes,
                ihaves_sent: counters.ihaves_sent - counters_before.ihaves_sent,
                grafts_sent: counters.grafts_sent - counters_before.grafts_sent,
                prunes_sent: counters.prunes_sent - counters_before.prunes_sent,
                graft_misses: counters.graft_misses - counters_before.graft_misses,
                syncs_sent: counters.syncs_sent - counters_before.syncs_sent,
                entries_repaired: counters.entries_repaired - counters_before.entries_repaired,
                repair_pages: counters.repair_pages - counters_before.repair_pages,
                swim_probes: counters.swim_probes - counters_before.swim_probes,
                ..FederationStats::default()
            };
        }
        phase.probe.idle(8);
    }
    phase.probe.close();
    (phase, out)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (world, mut setup) = timing::timed_setup(SETUP_REPS, build, drop)?;
    let mut schedule = Schedule::new(args.seed, world.owners.len());
    let mut latest = vec![String::new(); world.owners.len()];
    let mut warmup = Phase::default();
    let mut scratch = Outcome::default();
    for _ in 0..WARMUP_CYCLES {
        cycle(
            &world,
            &mut schedule,
            &mut Tracer::new(false),
            Some(&mut warmup),
            &mut scratch,
            &mut latest,
        );
        warmup.probe.idle(8);
    }
    warmup.probe.close();
    setup.add(&warmup);

    let mut report = Report::default();
    let out = if args.trace {
        let (_, a, b) = crate::traced(args, &mut report, setup, |seconds, tracer| {
            measure(&world, &mut schedule, &mut latest, seconds, tracer)
        })?;
        Outcome {
            publishes: a.publishes + b.publishes,
            covered: a.covered + b.covered,
            complete_after_tick: a.complete_after_tick + b.complete_after_tick,
            ..a
        }
    } else {
        let (phase, out) = measure(
            &world,
            &mut schedule,
            &mut latest,
            args.seconds,
            &mut Tracer::new(false),
        );
        crate::end_to_end(&mut report, setup, &phase, true);
        out
    };

    // Every publish must end up on every broker: converge, then check that
    // each owner's latest version is everywhere.  A publish whose owner's
    // latest version is missing somewhere failed.
    let converged = world.fed.repair_until_converged(CONVERGE_ROUNDS).is_some();
    if !converged {
        report.broken.push(format!(
            "backbone did not converge within {CONVERGE_ROUNDS} repair rounds"
        ));
    }
    let stale_owners = (0..world.owners.len())
        .filter(|&o| {
            !latest[o].is_empty()
                && holders(&world, world.owners[o].0, &latest[o]) != BROKERS as u64
        })
        .count() as u64;
    report.attempted = out.publishes;
    report.failed = stale_owners.min(out.publishes);

    let publishes = (COUNT_CYCLES * CYCLE) as f64;
    let ticks = COUNT_CYCLES as f64;
    let counters = out.counters;
    report.set("msgs_per_op", out.msgs);
    report.set("kb_per_op", out.bytes / 1024.0);
    report.set(
        "push_coverage",
        out.covered as f64 / (out.publishes as f64 * BROKERS as f64),
    );
    report.set(
        "ok_ratio",
        1.0 - report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.set("net.msgs_per_op", out.msgs);
    report.set("net.bytes_per_op", out.bytes);
    report.set(
        "net.overflow_dropped",
        world.network.stats().overflow_dropped as f64,
    );
    report.set(
        "federation.syncs_per_publish",
        counters.syncs_sent as f64 / publishes,
    );
    let totals = sum(&world.fed);
    report.set(
        "federation.rejected",
        (totals.rejected_unknown_origin + totals.rejected_replayed) as f64,
    );
    report.set(
        "plumtree.eager_per_publish",
        counters.eager_pushes as f64 / publishes,
    );
    report.set(
        "plumtree.ihaves_per_publish",
        counters.ihaves_sent as f64 / publishes,
    );
    report.set(
        "plumtree.grafts_per_publish",
        counters.grafts_sent as f64 / publishes,
    );
    report.set(
        "plumtree.prunes_per_publish",
        counters.prunes_sent as f64 / publishes,
    );
    report.set("plumtree.graft_misses", counters.graft_misses as f64);
    let empty_eager = (0..world.fed.len())
        .filter(|&b| world.fed.broker(b).epidemic_eager_peers().is_empty())
        .count();
    report.set("plumtree.empty_eager_brokers", empty_eager as f64);
    report.set(
        "plumtree.complete_after_tick",
        out.complete_after_tick as f64 / out.publishes.max(1) as f64,
    );
    report.set("broker.repair_msgs_per_tick", out.tick_msgs / ticks);
    report.set("broker.repair_kb_per_tick", out.tick_bytes / 1024.0 / ticks);
    report.set(
        "broker.entries_repaired_per_tick",
        counters.entries_repaired as f64 / ticks,
    );
    report.set(
        "broker.repair_pages_per_tick",
        counters.repair_pages as f64 / ticks,
    );
    report.set("membership.interconnect_ms", world.interconnect_ms);
    report.set("swim.probes_per_tick", counters.swim_probes as f64 / ticks);
    report.set("swim.suspicions", totals.swim_suspicions as f64);
    if totals.swim_suspicions > 0 {
        report.broken.push(format!(
            "{} SWIM suspicions without faults",
            totals.swim_suspicions
        ));
    }

    if args.trace {
        let capture = Arc::new(Capture::new(MessageKind::BrokerSync, None, 1));
        world.network.set_adversary(Arc::clone(&capture) as Arc<_>);
        let mut scratch = Outcome::default();
        cycle(
            &world,
            &mut schedule,
            &mut Tracer::new(false),
            None,
            &mut scratch,
            &mut latest,
        );
        world.network.clear_adversary();
        if let Some(sync) = capture.take().first() {
            layers::sync_message(&mut report, &sync.payload);
        }
    }
    Ok(report)
}
