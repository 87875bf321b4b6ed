//! `session`: the paper's own primitives on one broker (E1 and E2).
//!
//! Each closed-loop iteration runs one secure join (`secureConnection` +
//! `secureLogin`) with a fresh client, then two `secureMsgPeer` calls
//! between two joined peers, 256 B and 64 KiB, each received, decrypted and
//! verified.  step1 = join, step2 = 256 B message, step3 = 64 KiB message.

use crate::layers;
use crate::report::Report;
use crate::timing::{self, ms_since, Phase, SplitMix};
use crate::trace::Tracer;
use crate::Args;
use jxta_overlay::client::ClientConfig;
use jxta_overlay::{GroupId, Message, MessageKind};
use jxta_overlay_secure::identity::{PeerIdentity, DEFAULT_KEY_BITS};
use jxta_overlay_secure::setup::{SecureNetwork, SecureNetworkBuilder};
use jxta_overlay_secure::SecureClient;
use std::sync::Arc;
use std::time::Instant;

const GROUP: &str = "bench";
/// Joining identities are generated at set-up and reused round-robin: in
/// E1 key generation is a boot cost, not a join cost.
const POOL: usize = 8;
/// Keys are fixed so that set-up does the same work for every seed; the
/// seed chooses payloads and the joiners' session randomness.
const KEY_SEED: u64 = 0x5E55_0001;
const SETUP_REPS: usize = 3;
/// Iterations whose network traffic `msgs_per_op` / `kb_per_op` count.
const COUNT_ITERS: usize = 16;
const PAYLOADS: usize = 8;

struct World {
    net: SecureNetwork,
    sender: SecureClient,
    receiver: SecureClient,
    pool: Vec<PeerIdentity>,
}

fn build() -> Result<World, String> {
    let mut builder = SecureNetworkBuilder::new(KEY_SEED)
        .with_key_bits(DEFAULT_KEY_BITS)
        .with_broker_name("session-broker")
        .with_user("sender", "pw-sender", &[GROUP])
        .with_user("receiver", "pw-receiver", &[GROUP]);
    for k in 0..POOL {
        builder = builder.with_user(&format!("joiner-{k}"), &format!("pw-{k}"), &[GROUP]);
    }
    let mut net = builder.build();
    let broker = net.broker_id();
    let group = GroupId::new(GROUP);
    let mut sender = net.secure_client("sender");
    let mut receiver = net.secure_client("receiver");
    let err = |e: jxta_overlay::OverlayError| format!("session set-up: {e}");
    sender
        .secure_join(broker, "sender", "pw-sender")
        .map_err(err)?;
    receiver
        .secure_join(broker, "receiver", "pw-receiver")
        .map_err(err)?;
    sender.publish_secure_pipe(&group).map_err(err)?;
    receiver.publish_secure_pipe(&group).map_err(err)?;
    sender
        .resolve_secure_pipe(&group, receiver.id())
        .map_err(err)?;
    receiver
        .resolve_secure_pipe(&group, sender.id())
        .map_err(err)?;
    receiver.receive_secure_messages().map_err(err)?;
    let mut rng = jxta_crypto::HmacDrbg::from_seed_u64(KEY_SEED ^ 0x1D);
    let pool = (0..POOL)
        .map(|_| PeerIdentity::generate(&mut rng, DEFAULT_KEY_BITS).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    Ok(World {
        net,
        sender,
        receiver,
        pool,
    })
}

struct Inputs {
    small: Vec<String>,
    large: Vec<String>,
    rng: SplitMix,
}

#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    delivered_first_try: u64,
    msgs: f64,
    bytes: f64,
}

/// Sends `payload` and checks the receiver decrypts and verifies exactly it.
fn message(w: &mut World, tracer: &mut Tracer, payload: &str) -> bool {
    let group = GroupId::new(GROUP);
    let to = w.receiver.id();
    let sent = tracer.span("secure_msg_peer", || {
        w.sender.secure_msg_peer(&group, to, payload)
    });
    let received = tracer.span("receive_secure_messages", || {
        w.receiver.receive_secure_messages()
    });
    match (sent, received) {
        (Ok(_), Ok(received)) => {
            received.len() == 1
                && received[0].text == payload
                && received[0].from == w.sender.id()
                && received[0].group == group
        }
        _ => false,
    }
}

fn measure(
    w: &mut World,
    inputs: &mut Inputs,
    seconds: f64,
    tracer: &mut Tracer,
) -> (Phase, Outcome) {
    let mut phase = Phase::default();
    let mut out = Outcome::default();
    let broker = w.net.broker_id();
    let admin = w.net.admin().credential().clone();
    let network = Arc::clone(w.net.network());
    let net_before = network.stats();
    let start = Instant::now();
    let mut i = 0usize;
    while i < COUNT_ITERS || start.elapsed().as_secs_f64() < seconds {
        tracer.set_op(i as u64);
        let k = i % POOL;
        let mut joiner = SecureClient::new(
            Arc::clone(&network),
            ClientConfig::named(format!("joiner-{k}")),
            w.pool[k].clone(),
            admin.clone(),
            inputs.rng.next_u64(),
        )
        .expect("the administrator credential is self-signed");
        let (user, password) = (format!("joiner-{k}"), format!("pw-{k}"));
        let small = &inputs.small[i % PAYLOADS];
        let large = &inputs.large[i % PAYLOADS];

        let t0 = Instant::now();
        let open = tracer.begin("join");
        let connected = tracer.span("secure_connection", || joiner.secure_connection(broker));
        let logged_in = connected.is_ok()
            && tracer
                .span("secure_login", || joiner.secure_login(&user, &password))
                .is_ok();
        tracer.end(open);
        let join_ms = ms_since(t0);
        let joined = logged_in && joiner.credential().is_some();

        let t1 = Instant::now();
        let open = tracer.begin("msg256");
        let small_ok = message(w, tracer, small);
        tracer.end(open);
        let small_ms = ms_since(t1);

        let t2 = Instant::now();
        let open = tracer.begin("msg64k");
        let large_ok = message(w, tracer, large);
        tracer.end(open);
        let large_ms = ms_since(t2);

        let wall = ms_since(t0);
        let ok = [joined, small_ok, large_ok];
        out.attempted += 3;
        out.failed += ok.iter().filter(|&&ok| !ok).count() as u64;
        out.delivered_first_try += u64::from(small_ok) + u64::from(large_ok);
        let step = |ok: bool, ms: f64| if ok { ms } else { f64::NAN };
        phase.record(
            [
                step(joined, join_ms),
                step(small_ok, small_ms),
                step(large_ok, large_ms),
            ],
            wall,
            1.0,
        );
        i += 1;
        if i == COUNT_ITERS {
            let now = network.stats();
            out.msgs = (now.messages_sent - net_before.messages_sent) as f64 / COUNT_ITERS as f64;
            out.bytes = (now.bytes_sent - net_before.bytes_sent) as f64 / COUNT_ITERS as f64;
        }
        drop(joiner);
        phase.probe.idle(4);
    }
    phase.probe.close();
    (phase, out)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let (mut world, setup) = timing::timed_setup(SETUP_REPS, build, |w| w.net.shutdown())?;
    let mut rng = SplitMix::new(args.seed);
    let small = (0..PAYLOADS).map(|_| rng.text(256)).collect();
    let large = (0..PAYLOADS).map(|_| rng.text(64 << 10)).collect();
    let mut inputs = Inputs { small, large, rng };
    let mut report = Report::default();

    let out = if args.trace {
        let (_, a, b) = crate::traced(args, &mut report, setup, |seconds, tracer| {
            measure(&mut world, &mut inputs, seconds, tracer)
        })?;
        Outcome {
            attempted: a.attempted + b.attempted,
            failed: a.failed + b.failed,
            delivered_first_try: a.delivered_first_try + b.delivered_first_try,
            ..a
        }
    } else {
        let (phase, out) = measure(
            &mut world,
            &mut inputs,
            args.seconds,
            &mut Tracer::new(false),
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
        out.delivered_first_try as f64 / (2 * out.attempted / 3).max(1) as f64,
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
    let cache = world.net.broker_extension().verify_cache_stats();
    report.set("sigcache.hit_ratio", cache.hit_rate());

    if args.trace {
        replay(&mut world, &inputs, &mut report)?;
    }
    world.net.shutdown();
    Ok(report)
}

/// The traced run's replay pass: the join and message steps on the
/// workload's own keys and messages, calling the public functions directly.
fn replay(w: &mut World, inputs: &Inputs, report: &mut Report) -> Result<(), String> {
    let group = GroupId::new(GROUP);
    let sender = w.sender.identity().clone();
    let receiver = w.receiver.identity().clone();
    let broker = w.net.broker_extension().identity().clone();
    let credential = w
        .sender
        .credential()
        .cloned()
        .ok_or("sender has no credential")?;
    layers::rsa(report, &sender);
    layers::signed_adv(
        report,
        &group,
        &sender,
        &credential,
        w.sender.trust(),
        &broker,
    );
    layers::hashing(report);
    let mut rng = jxta_crypto::HmacDrbg::from_seed_u64(KEY_SEED ^ 0x2E);
    for (size, text) in [("256", &inputs.small[0]), ("64k", &inputs.large[0])] {
        let signature = sender
            .sign(&jxta_overlay_secure::broker_ext::message_signed_content(
                GROUP, text,
            ))
            .map_err(|e| e.to_string())?;
        let inner = Message::new(MessageKind::SecurePeerText, sender.peer_id(), 0)
            .with_str("group", GROUP)
            .with_str("text", text)
            .with_element("signature", signature)
            .to_bytes();
        layers::envelope(report, size, &mut rng, &receiver, &inner)?;
    }
    Ok(())
}
