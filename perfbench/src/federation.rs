//! `federation`: a signed publish, its cross-broker push and a lookup on
//! four threaded brokers with full replication (below the active-view
//! capacity, so the mesh gossip path runs).
//!
//! One client is homed at each broker, all in one group.  Iteration `i`
//! has the client at broker `i mod 4` sign a new version of its pipe
//! advertisement (same owner key, new name, so the index stays bounded) and
//! publish it; the client at the next broker blocks until its broker pushes
//! exactly that XML, then looks the advertisement up through its broker and
//! validates the signature.  step1 = sign + publish (the write), step2 =
//! publish start to push received (visible), step3 = lookup + validation
//! (the read).

use crate::layers::{self, Capture};
use crate::report::Report;
use crate::timing::{self, ms_since, Phase, SplitMix};
use crate::trace::Tracer;
use crate::Args;
use jxta_overlay::advertisement::{Advertisement, PipeAdvertisement};
use jxta_overlay::broker::{Broker, BrokerConfig};
use jxta_overlay::{ClientEvent, GroupId, LinkModel, MessageKind, SimNetwork};
use jxta_overlay_secure::admin::DEFAULT_CREDENTIAL_LIFETIME;
use jxta_overlay_secure::identity::{PeerIdentity, DEFAULT_KEY_BITS};
use jxta_overlay_secure::setup::{SecureNetwork, SecureNetworkBuilder};
use jxta_overlay_secure::signed_adv::{
    signed_pipe_advertisement, validate_signed_pipe_advertisement,
};
use jxta_overlay_secure::{SecureBrokerExtension, SecureClient};
use std::sync::Arc;
use std::time::{Duration, Instant};

const GROUP: &str = "bench";
const BROKERS: usize = 4;
const KEY_SEED: u64 = 0xFED0_0001;
const SETUP_REPS: usize = 3;
/// Untimed publishes before timing.  Every publish leaves one new
/// signature in each broker's verified-signature cache (4096 entries), so
/// this fills the caches and the timed loop runs in their steady state.
const WARMUP_ITERS: usize = 4200;
const COUNT_ITERS: usize = 64;
const PUSH_TIMEOUT: Duration = Duration::from_secs(5);

struct World {
    net: SecureNetwork,
    clients: Vec<SecureClient>,
}

fn build() -> Result<World, String> {
    let mut builder = SecureNetworkBuilder::new(KEY_SEED)
        .with_key_bits(DEFAULT_KEY_BITS)
        .with_broker_count(BROKERS);
    for k in 0..BROKERS {
        builder = builder.with_user(&format!("member-{k}"), &format!("pw-{k}"), &[GROUP]);
    }
    let mut net = builder.build();
    let group = GroupId::new(GROUP);
    let mut clients = Vec::with_capacity(BROKERS);
    for k in 0..BROKERS {
        let mut client = net.secure_client(&format!("member-{k}"));
        let err = |e: jxta_overlay::OverlayError| format!("federation set-up, member {k}: {e}");
        client
            .secure_join(
                net.broker_id_at(k),
                &format!("member-{k}"),
                &format!("pw-{k}"),
            )
            .map_err(err)?;
        client.publish_secure_pipe(&group).map_err(err)?;
        clients.push(client);
    }
    let mut world = World { net, clients };
    if !world.settle() {
        return Err("federation set-up: brokers did not drain".into());
    }
    Ok(world)
}

impl World {
    /// Waits until every broker has processed everything delivered to it
    /// (two identical passes in a row), then drops the clients' pending
    /// events.  Runs between iterations only, never inside a timed step.
    fn settle(&mut self) -> bool {
        let network = Arc::clone(self.net.network());
        let deadline = Instant::now() + PUSH_TIMEOUT;
        let snapshot = |net: &SecureNetwork| -> Option<u64> {
            let mut total = 0;
            for k in 0..BROKERS {
                let broker = net.broker_at(k);
                let processed = broker.processed_count();
                if processed != network.delivered_to(&broker.id()) {
                    return None;
                }
                total += processed;
            }
            Some(total)
        };
        let mut last = None;
        loop {
            let now = snapshot(&self.net);
            if now.is_some() && now == last {
                break;
            }
            last = now;
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        for client in &mut self.clients {
            client.inner_mut().poll_events();
        }
        true
    }
}

#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    covered: u64,
    replicas: u64,
    msgs: f64,
    bytes: f64,
    syncs: f64,
    rejected: u64,
}

fn rejected(net: &SecureNetwork) -> u64 {
    (0..BROKERS)
        .map(|k| {
            let s = net.broker_at(k).federation_stats();
            s.rejected_unknown_origin + s.rejected_replayed
        })
        .sum()
}

fn syncs_sent(net: &SecureNetwork) -> u64 {
    (0..BROKERS)
        .map(|k| net.broker_at(k).federation_stats().syncs_sent)
        .sum()
}

/// One iteration; returns the three step times, `None` for a failed step.
fn iteration(w: &mut World, tracer: &mut Tracer, i: usize, salt: &str) -> [Option<f64>; 3] {
    let group = GroupId::new(GROUP);
    let (o, r) = (i % BROKERS, (i + 1) % BROKERS);
    let owner = w.clients[o].id();
    let name = format!("{salt}-{i:09}");
    let advertisement = PipeAdvertisement {
        owner,
        group: group.clone(),
        name: name.clone(),
    };

    let t0 = Instant::now();
    let open = tracer.begin("publish");
    let origin = &mut w.clients[o];
    let credential = origin.credential().cloned();
    let xml = tracer.span("sign", || {
        credential
            .and_then(|c| signed_pipe_advertisement(&advertisement, origin.identity(), &c).ok())
    });
    let published = xml.as_ref().is_some_and(|xml| {
        tracer
            .span("publish_advertisement", || {
                origin
                    .inner_mut()
                    .publish_advertisement(&group, PipeAdvertisement::DOC_TYPE, xml)
            })
            .is_ok()
    });
    tracer.end(open);
    let publish_ms = ms_since(t0);
    let Some(xml) = xml.filter(|_| published) else {
        return [None, None, None];
    };

    let open = tracer.begin("visible");
    let reader = &mut w.clients[r];
    let mut visible = false;
    loop {
        let event = tracer.span("wait_for_event", || {
            reader.inner_mut().wait_for_event(PUSH_TIMEOUT)
        });
        match event {
            Some(ClientEvent::Advertisement { xml: pushed, .. }) if pushed == xml => {
                visible = true;
                break;
            }
            // A push of any other version is stale: a failure.
            Some(ClientEvent::Advertisement { .. }) | None => break,
            Some(_) => continue,
        }
    }
    tracer.end(open);
    let visible_ms = ms_since(t0);

    let t2 = Instant::now();
    let open = tracer.begin("lookup");
    let found = tracer.span("resolve_pipe_xml", || {
        reader.inner_mut().resolve_pipe_xml(&group, owner)
    });
    let valid = found.is_ok_and(|found| {
        found == xml
            && tracer
                .span("validate", || {
                    validate_signed_pipe_advertisement(&found, owner, reader.trust())
                })
                .is_ok_and(|v| v.advertisement.name == name)
    });
    tracer.end(open);
    let lookup_ms = ms_since(t2);
    [
        Some(publish_ms),
        visible.then_some(visible_ms),
        valid.then_some(lookup_ms),
    ]
}

/// Runs iterations for `seconds`, and at least `min_iters` of them.  Each
/// call draws a fresh name salt, so every published version is new.
fn measure(
    w: &mut World,
    rng: &mut SplitMix,
    seconds: f64,
    tracer: &mut Tracer,
    min_iters: usize,
) -> (Phase, Outcome) {
    let mut phase = Phase::default();
    let mut out = Outcome::default();
    let salt = format!("{:016x}", rng.next_u64());
    let network = Arc::clone(w.net.network());
    let net_before = network.stats();
    let syncs_before = syncs_sent(&w.net);
    let rejected_before = rejected(&w.net);
    let start = Instant::now();
    let mut i = 0usize;
    while i < min_iters.max(COUNT_ITERS) || start.elapsed().as_secs_f64() < seconds {
        tracer.set_op(i as u64);
        let t0 = Instant::now();
        let mut steps = iteration(w, tracer, i, &salt);
        let wall = ms_since(t0);
        // Brokers that never drain time the read out.
        if !w.settle() {
            steps[2] = None;
        }
        out.attempted += 3;
        out.failed += steps.iter().filter(|s| s.is_none()).count() as u64;
        phase.record(steps.map(|s| s.unwrap_or(f64::NAN)), wall, 1.0);
        let owner = w.clients[i % BROKERS].id();
        let group = GroupId::new(GROUP);
        let expected = format!("{salt}-{i:09}");
        for k in 0..BROKERS {
            let held = w
                .net
                .broker_at(k)
                .lookup(&group, PipeAdvertisement::DOC_TYPE, Some(owner));
            let current = held.len() == 1
                && PipeAdvertisement::from_xml(&held[0]).is_ok_and(|a| a.name == expected);
            out.covered += u64::from(current);
            out.replicas += 1;
        }
        i += 1;
        if i == COUNT_ITERS {
            let now = network.stats();
            out.msgs = (now.messages_sent - net_before.messages_sent) as f64 / i as f64;
            out.bytes = (now.bytes_sent - net_before.bytes_sent) as f64 / i as f64;
            out.syncs = (syncs_sent(&w.net) - syncs_before) as f64 / i as f64;
        }
        phase.probe.idle(2);
    }
    phase.probe.close();
    out.rejected = rejected(&w.net) - rejected_before;
    (phase, out)
}

pub fn run(args: &Args) -> Result<Report, String> {
    // Set-up repetitions build the deployment; only the kept one is warmed,
    // and its warm-up time is added to the set-up median.
    let (mut world, mut setup) = timing::timed_setup(SETUP_REPS, build, |w| w.net.shutdown())?;
    let mut rng = SplitMix::new(args.seed);
    let (warmup, warm) = measure(
        &mut world,
        &mut rng,
        0.0,
        &mut Tracer::new(false),
        WARMUP_ITERS,
    );
    if warm.failed > 0 {
        return Err(format!("federation warm-up: {} failures", warm.failed));
    }
    setup.add(&warmup);

    let mut report = Report::default();
    let out = if args.trace {
        let (_, a, b) = crate::traced(args, &mut report, setup, |seconds, tracer| {
            measure(&mut world, &mut rng, seconds, tracer, 0)
        })?;
        replay(&mut world, &mut report)?;
        Outcome {
            attempted: a.attempted + b.attempted,
            failed: a.failed + b.failed,
            ..a
        }
    } else {
        let (phase, out) = measure(
            &mut world,
            &mut rng,
            args.seconds,
            &mut Tracer::new(false),
            0,
        );
        crate::end_to_end(&mut report, setup, &phase, true);
        out
    };
    report.attempted = out.attempted;
    report.failed = out.failed;
    report.set("msgs_per_op", out.msgs);
    report.set("kb_per_op", out.bytes / 1024.0);
    report.set(
        "push_coverage",
        out.covered as f64 / out.replicas.max(1) as f64,
    );
    report.set(
        "ok_ratio",
        1.0 - out.failed as f64 / out.attempted.max(1) as f64,
    );
    report.set("net.msgs_per_op", out.msgs);
    report.set("net.bytes_per_op", out.bytes);
    report.set(
        "net.overflow_dropped",
        world.net.network().stats().overflow_dropped as f64,
    );
    report.set("federation.syncs_per_publish", out.syncs);
    report.set("federation.rejected", out.rejected as f64);
    let (hits, misses) = (0..BROKERS).fold((0, 0), |(h, m), k| {
        let s = world.net.broker_extension_at(k).verify_cache_stats();
        (h + s.hits, m + s.misses)
    });
    report.set(
        "sigcache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    world.net.shutdown();
    Ok(report)
}

/// The traced run's replay pass: RSA, XML and signed-advertisement layers
/// on the members' keys, the codec of a captured gossip message, and broker
/// ingress on an unspawned replica fed captured publish bytes.
fn replay(w: &mut World, report: &mut Report) -> Result<(), String> {
    let group = GroupId::new(GROUP);
    let member = w.clients[0].identity().clone();
    let credential = w.clients[0]
        .credential()
        .cloned()
        .ok_or("member 0 has no credential")?;
    let home = w.net.broker_extension_at(0).identity().clone();
    layers::rsa(report, &member);
    layers::signed_adv(
        report,
        &group,
        &member,
        &credential,
        w.clients[1].trust(),
        &home,
    );
    layers::hashing(report);

    // Capture real traffic of a few more iterations: the origin's publish
    // requests and one inter-broker gossip message.
    const CAPTURED: usize = 16;
    let origin = w.clients[0].id();
    let publishes = Arc::new(Capture::new(
        MessageKind::PublishAdvertisement,
        Some(origin),
        CAPTURED,
    ));
    let syncs = Arc::new(Capture::new(MessageKind::BrokerSync, None, 1));
    let salt = "replay";
    for (capture, count) in [(&publishes, CAPTURED), (&syncs, 1)] {
        w.net.network().set_adversary(Arc::clone(capture) as Arc<_>);
        for j in 0..count {
            // Iterations with origin member 0.
            let i = j * BROKERS;
            if iteration(w, &mut Tracer::new(false), i, salt)
                .iter()
                .any(Option::is_none)
                || !w.settle()
            {
                w.net.network().clear_adversary();
                return Err("federation replay: iteration failed".into());
            }
        }
        w.net.network().clear_adversary();
    }
    if let Some(sync) = syncs.take().first() {
        layers::sync_message(report, &sync.payload);
    }

    // Broker ingress on an unspawned replica trusting the same issuers.
    let mut rng = jxta_crypto::HmacDrbg::from_seed_u64(KEY_SEED ^ 0x3F);
    let identity = PeerIdentity::generate(&mut rng, DEFAULT_KEY_BITS).map_err(|e| e.to_string())?;
    let replica_credential = w
        .net
        .admin()
        .issue_broker_credential(
            "replica",
            identity.peer_id(),
            identity.public_key(),
            DEFAULT_CREDENTIAL_LIFETIME,
        )
        .map_err(|e| e.to_string())?;
    let replica_net = SimNetwork::new(LinkModel::ideal());
    let _origin_inbox = replica_net.register(origin);
    let replica = Broker::new(
        identity.peer_id(),
        BrokerConfig::named("replica"),
        Arc::clone(&replica_net),
        Arc::clone(w.net.database()),
    );
    let extension = Arc::new(SecureBrokerExtension::new(
        identity,
        replica_credential,
        DEFAULT_CREDENTIAL_LIFETIME,
        7,
    ));
    extension.set_admin_public_key(w.net.admin().public_key().clone());
    for k in 0..BROKERS {
        extension.add_peer_broker_credential(w.net.broker_extension_at(k).credential().clone());
    }
    replica.set_extension(extension);
    replica.establish_session(origin, "member-0");
    let (mut cold, mut warm, mut apply) = (Vec::new(), Vec::new(), Vec::new());
    for message in publishes.take() {
        let t = Instant::now();
        let decoded = replica.decode_and_preverify(&message);
        cold.push(ms_since(t) * 1e3);
        let t = Instant::now();
        let again = replica.decode_and_preverify(&message);
        warm.push(ms_since(t) * 1e3);
        let (Some(decoded), Some(_)) = (decoded, again) else {
            return Err("federation replay: captured publish does not decode".into());
        };
        let t = Instant::now();
        let reply = replica.handle_message(&decoded);
        apply.push(ms_since(t) * 1e3);
        if reply.and_then(|r| r.element_str("status")).as_deref() != Some("ok") {
            return Err("federation replay: replica rejected a captured publish".into());
        }
    }
    report.set("broker.decode_preverify_us.cold", timing::median(&cold));
    report.set("broker.decode_preverify_us.warm", timing::median(&warm));
    report.set("broker.apply_publish_us", timing::median(&apply));
    Ok(())
}
