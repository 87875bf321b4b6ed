//! Integration tests pitting the adversaries of paper §2.3 against both the
//! plain and the secure primitives, plus the *inter-broker* adversaries of
//! the federation backbone: once messages transit intermediate brokers, the
//! replay/redirect/tamper threats re-appear on the broker–broker links and
//! must be re-validated there.

use jxta_overlay::{GroupId, MessageKind};
use jxta_overlay_secure::attacks::{
    EdgeAdversary, Eavesdropper, FakeBroker, InterBrokerReplayAttacker, LoginReplayAttacker,
    RedirectToFakeBroker,
};
use jxta_overlay_secure::setup::SecureNetworkBuilder;
use jxta_overlay::clock::Deadline;
use std::time::Duration;

fn setup(seed: u64) -> jxta_overlay_secure::setup::SecureNetwork {
    SecureNetworkBuilder::new(seed)
        .with_key_bits(512)
        .with_user("alice", "s3cret-password", &["ops"])
        .with_user("bob", "bob-pw", &["ops"])
        .build()
}

#[test]
fn passwords_and_messages_are_invisible_to_eavesdroppers() {
    let mut world = setup(20);
    let broker = world.broker_id();
    let group = GroupId::new("ops");
    let spy = Eavesdropper::new();
    world.network().set_adversary(spy.clone());

    let mut alice = world.secure_client("alice");
    let mut bob = world.secure_client("bob");
    alice.secure_join(broker, "alice", "s3cret-password").unwrap();
    bob.secure_join(broker, "bob", "bob-pw").unwrap();
    alice.publish_secure_pipe(&group).unwrap();
    bob.publish_secure_pipe(&group).unwrap();
    alice.secure_msg_peer(&group, bob.id(), "launch code 0000").unwrap();
    assert_eq!(bob.receive_secure_messages().unwrap()[0].text, "launch code 0000");

    assert!(spy.observed_count() > 0, "the spy did see traffic");
    assert!(!spy.saw_text("s3cret-password"));
    assert!(!spy.saw_text("launch code 0000"));
}

#[test]
fn secure_login_replay_is_rejected_by_the_broker() {
    let mut world = setup(21);
    let broker = world.broker_id();
    let replayer = LoginReplayAttacker::new(MessageKind::SecureLoginRequest);
    world.network().set_adversary(replayer.clone());

    let mut victim = world.secure_client("victim");
    victim.secure_join(broker, "alice", "s3cret-password").unwrap();
    assert!(replayer.has_capture());
    world.network().clear_adversary();

    let rejected_before = world.broker_extension().stats().replays_rejected;
    assert!(replayer.replay(world.network(), None));
    let deadline = Deadline::after(std::time::Duration::from_secs(2));
    while world.broker_extension().stats().replays_rejected == rejected_before
        && !deadline.expired()
    {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(
        world.broker_extension().stats().replays_rejected,
        rejected_before + 1
    );
    // No extra credential was ever issued for the replay.
    assert_eq!(world.broker_extension().stats().credentials_issued, 1);
}

#[test]
fn fake_broker_is_detected_before_credentials_are_sent() {
    let mut world = setup(22);
    let broker = world.broker_id();
    let fake = FakeBroker::spawn(world.network(), 0xFA, 512);
    world
        .network()
        .set_adversary(RedirectToFakeBroker::new(broker, fake.id()));

    let mut client = world.secure_client("client");
    assert!(client.secure_connection(broker).is_err());
    // secureLogin cannot even be attempted, so nothing is harvested.
    assert!(client.secure_login("alice", "s3cret-password").is_err());
    assert!(fake.harvested_credentials().is_empty());
    world.network().clear_adversary();

    // Once the redirection stops, the same client joins normally.
    client.secure_connection(broker).unwrap();
    client.secure_login("alice", "s3cret-password").unwrap();
    assert!(client.credential().is_some());
}

fn federated_setup(seed: u64) -> jxta_overlay_secure::setup::SecureNetwork {
    SecureNetworkBuilder::new(seed)
        .with_key_bits(512)
        .with_broker_count(2)
        .with_user("alice", "s3cret-password", &["ops"])
        .with_user("bob", "bob-pw", &["ops"])
        .build()
}

/// Polls `condition` until it holds or two seconds elapse.
fn eventually(mut condition: impl FnMut() -> bool) -> bool {
    let deadline = Deadline::after(Duration::from_secs(2));
    loop {
        if condition() {
            return true;
        }
        if deadline.expired() {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn replayed_inter_broker_gossip_is_rejected() {
    let mut world = federated_setup(40);
    let broker_a = world.broker_id_at(0);
    let broker_b = world.broker_id_at(1);
    let tap = InterBrokerReplayAttacker::new(broker_a, broker_b, MessageKind::BrokerSync);
    world.network().set_adversary(tap.clone());

    // A secure join at broker A produces membership gossip towards broker B.
    let mut alice = world.secure_client("alice");
    alice.secure_join(broker_a, "alice", "s3cret-password").unwrap();
    assert!(eventually(|| tap.has_capture()), "gossip crossed the tapped edge");
    world.network().clear_adversary();
    assert!(eventually(|| world.federation().converged()));

    // Re-injecting the captured gossip verbatim is detected by the
    // per-origin sequence numbers and changes nothing.
    let routing_before = world.broker_at(1).routing_snapshot();
    let rejected_before = world.broker_at(1).federation_stats().rejected_replayed;
    assert!(tap.replay(world.network(), None));
    assert!(eventually(|| {
        world.broker_at(1).federation_stats().rejected_replayed > rejected_before
    }));
    assert_eq!(world.broker_at(1).routing_snapshot(), routing_before);
    world.shutdown();
}

#[test]
fn replayed_inter_broker_relay_does_not_duplicate_the_message() {
    let mut world = federated_setup(41);
    let broker_a = world.broker_id_at(0);
    let broker_b = world.broker_id_at(1);
    let group = GroupId::new("ops");

    let mut alice = world.secure_client("alice");
    let mut bob = world.secure_client("bob");
    alice.secure_join(broker_a, "alice", "s3cret-password").unwrap();
    bob.secure_join(broker_b, "bob", "bob-pw").unwrap();
    alice.publish_secure_pipe(&group).unwrap();
    bob.publish_secure_pipe(&group).unwrap();
    assert!(eventually(|| world.federation().converged()));

    let tap = InterBrokerReplayAttacker::new(broker_a, broker_b, MessageKind::BrokerRelay);
    world.network().set_adversary(tap.clone());
    alice.secure_msg_peer_relayed(&group, bob.id(), "wire the funds").unwrap();
    assert!(eventually(|| tap.has_capture()));
    world.network().clear_adversary();

    // The original arrives exactly once.
    assert!(eventually(|| {
        world.broker_at(1).federation_stats().relays_delivered == 1
    }));
    assert_eq!(bob.receive_secure_messages().unwrap().len(), 1);

    // The replayed relay is rejected by broker B's sequence tracking, so the
    // payment instruction is NOT delivered (and hence not surfaced) twice.
    let rejected_before = world.broker_at(1).federation_stats().rejected_replayed;
    assert!(tap.replay(world.network(), None));
    assert!(eventually(|| {
        world.broker_at(1).federation_stats().rejected_replayed > rejected_before
    }));
    assert_eq!(world.broker_at(1).federation_stats().relays_delivered, 1);
    assert!(bob.receive_secure_messages().unwrap().is_empty());
    world.shutdown();
}

#[test]
fn forged_gossip_from_outside_the_federation_is_rejected() {
    let mut world = federated_setup(42);
    let broker_a = world.broker_id_at(0);

    let mut alice = world.secure_client("alice");
    alice.secure_join(broker_a, "alice", "s3cret-password").unwrap();
    assert!(eventually(|| world.federation().converged()));

    // A rogue peer (never admitted to the backbone) sends a well-formed
    // publish gossip digest trying to poison broker A's index.
    let rogue = world.plain_client("rogue");
    let forged = jxta_overlay::Message::new(MessageKind::BrokerSync, rogue.id(), 0)
        .with_str("seq", "1")
        .with_str("count", "1")
        .with_str("e0-op", "publish")
        .with_str("e0-seq", "1")
        .with_str("e0-group", "ops")
        .with_str("e0-doc-type", "jxta:PipeAdvertisement")
        .with_str("e0-owner", &rogue.id().to_urn())
        .with_str("e0-xml", "<forged/>");
    let index_before = world.broker_at(0).advertisement_snapshot();
    world
        .network()
        .send(rogue.id(), broker_a, forged.to_bytes())
        .unwrap();
    assert!(eventually(|| {
        world.broker_at(0).federation_stats().rejected_unknown_origin >= 1
    }));
    assert_eq!(world.broker_at(0).advertisement_snapshot(), index_before);
    world.shutdown();
}

#[test]
fn redirected_backbone_edge_leaks_nothing_and_delivers_nothing() {
    let mut world = federated_setup(43);
    let broker_a = world.broker_id_at(0);
    let broker_b = world.broker_id_at(1);
    let group = GroupId::new("ops");

    let mut alice = world.secure_client("alice");
    let mut bob = world.secure_client("bob");
    alice.secure_join(broker_a, "alice", "s3cret-password").unwrap();
    bob.secure_join(broker_b, "bob", "bob-pw").unwrap();
    alice.publish_secure_pipe(&group).unwrap();
    bob.publish_secure_pipe(&group).unwrap();
    assert!(eventually(|| world.federation().converged()));

    // A compromised backbone router between A and B diverts the edge to a
    // rogue endpoint that records everything it is handed.
    let mut rogue = world.plain_client("rogue-router");
    let redirect = EdgeAdversary::redirect(broker_a, broker_b, rogue.id());
    world.network().set_adversary(redirect.clone());

    alice.secure_msg_peer_relayed(&group, bob.id(), "the vault code is 1234").unwrap();
    assert!(eventually(|| redirect.intercepted_count() >= 1));
    world.network().clear_adversary();

    // Bob never gets the message (availability is lost — that is the one
    // thing a routing adversary can always do)…
    assert!(bob.receive_secure_messages().unwrap().is_empty());
    // …but the rogue holds only sealed bytes: the plaintext never appears,
    // and replaying the stolen relay into broker B from outside the
    // federation is rejected.
    let captured = rogue.poll_events();
    assert!(!captured.is_empty(), "the rogue did receive the diverted relay");
    let stolen = match &captured[0] {
        jxta_overlay::ClientEvent::Raw(message) => message.clone(),
        other => panic!("expected the raw relay, got {other:?}"),
    };
    let stolen_bytes = stolen.to_bytes();
    let plaintext = b"the vault code is 1234";
    assert!(
        !stolen_bytes
            .windows(plaintext.len())
            .any(|window| window == plaintext),
        "the diverted relay must only carry the sealed envelope"
    );
    let rejected_before = world.broker_at(1).federation_stats().rejected_unknown_origin;
    world
        .network()
        .send(rogue.id(), broker_b, stolen.to_bytes())
        .unwrap();
    assert!(eventually(|| {
        world.broker_at(1).federation_stats().rejected_unknown_origin > rejected_before
    }));
    assert!(bob.receive_secure_messages().unwrap().is_empty());
    world.shutdown();
}

#[test]
fn dropped_backbone_gossip_is_detectable_as_non_convergence() {
    // Gossip is fire-and-forget over the (reliable, in-process) channel
    // substrate; an adversary dropping a backbone edge therefore creates a
    // replica divergence that persists after the adversary leaves.  Without
    // a repair interval the federation *detects* it — converged() stays
    // false — which is the operator signal; the companion test below shows
    // the anti-entropy loop healing the same divergence.
    let mut world = federated_setup(45);
    let broker_a = world.broker_id_at(0);
    let broker_b = world.broker_id_at(1);

    let dropper = EdgeAdversary::drop_all(broker_a, broker_b);
    world.network().set_adversary(dropper.clone());
    let mut alice = world.secure_client("alice");
    alice.secure_join(broker_a, "alice", "s3cret-password").unwrap();
    alice.publish_secure_pipe(&GroupId::new("ops")).unwrap();
    assert!(eventually(|| dropper.intercepted_count() >= 1));
    world.network().clear_adversary();

    // Broker B permanently missed the join and publish gossip.
    assert!(
        !world.federation().await_convergence(Duration::from_millis(200)),
        "a dropped gossip edge must be visible as divergence"
    );
    assert!(world.broker_at(1).home_of(&alice.id()).is_none());
    assert!(world
        .broker_at(1)
        .lookup(&GroupId::new("ops"), "jxta:PipeAdvertisement", Some(alice.id()))
        .is_empty());
    world.shutdown();
}

#[test]
fn dropped_backbone_gossip_heals_through_anti_entropy() {
    // The same adversarial drop as above, but the deployment runs the
    // periodic anti-entropy loop: once the adversary lifts, the divergence
    // heals unattended within a bounded number of repair intervals, with
    // the repaired state fully usable (routing, index and membership).
    let mut world = SecureNetworkBuilder::new(46)
        .with_key_bits(512)
        .with_broker_count(2)
        .with_repair_interval(Duration::from_millis(20))
        .with_user("alice", "s3cret-password", &["ops"])
        .with_user("bob", "bob-pw", &["ops"])
        .build();
    let broker_a = world.broker_id_at(0);
    let broker_b = world.broker_id_at(1);
    let group = GroupId::new("ops");

    let dropper = EdgeAdversary::drop_all(broker_a, broker_b);
    world.network().set_adversary(dropper.clone());
    let mut alice = world.secure_client("alice");
    alice.secure_join(broker_a, "alice", "s3cret-password").unwrap();
    alice.publish_secure_pipe(&group).unwrap();
    assert!(eventually(|| dropper.intercepted_count() >= 1));
    // Broker B missed the join and publish gossip while the edge was cut.
    assert!(world.broker_at(1).home_of(&alice.id()).is_none());
    world.network().clear_adversary();

    assert!(
        world.federation().await_convergence(Duration::from_secs(2)),
        "anti-entropy must reconverge the federation unattended"
    );
    assert_eq!(world.broker_at(1).home_of(&alice.id()), Some(broker_a));
    assert!(!world
        .broker_at(1)
        .lookup(&group, "jxta:PipeAdvertisement", Some(alice.id()))
        .is_empty());

    // The repaired state is usable end to end: bob joins at the healed
    // broker and messages alice across the backbone.
    let mut bob = world.secure_client("bob");
    bob.secure_join(broker_b, "bob", "bob-pw").unwrap();
    bob.publish_secure_pipe(&group).unwrap();
    assert!(world.federation().await_convergence(Duration::from_secs(2)));
    bob.secure_msg_peer_relayed(&group, alice.id(), "healed and routed").unwrap();
    assert!(eventually(|| {
        alice
            .receive_secure_messages()
            .map(|m| m.iter().any(|m| m.text == "healed and routed"))
            .unwrap_or(false)
    }));

    // The healing went through the repair path and was counted.
    let repaired: u64 = (0..2)
        .map(|i| world.broker_at(i).federation_stats().entries_repaired)
        .sum();
    let mismatches: u64 = (0..2)
        .map(|i| world.broker_at(i).federation_stats().repair_mismatches)
        .sum();
    let rounds: u64 = (0..2)
        .map(|i| world.broker_at(i).federation_stats().repair_rounds)
        .sum();
    assert!(repaired > 0, "entries were repaired");
    assert!(mismatches > 0, "the divergence was detected via digests");
    assert!(rounds > 0, "repair rounds ran on the interval");
    world.shutdown();
}

#[test]
fn tampered_backbone_relay_is_dropped_end_to_end() {
    let mut world = federated_setup(44);
    let broker_a = world.broker_id_at(0);
    let broker_b = world.broker_id_at(1);
    let group = GroupId::new("ops");

    let mut alice = world.secure_client("alice");
    let mut bob = world.secure_client("bob");
    alice.secure_join(broker_a, "alice", "s3cret-password").unwrap();
    bob.secure_join(broker_b, "bob", "bob-pw").unwrap();
    alice.publish_secure_pipe(&group).unwrap();
    bob.publish_secure_pipe(&group).unwrap();
    assert!(eventually(|| world.federation().converged()));

    let tamper = EdgeAdversary::tamper(broker_a, broker_b);
    world.network().set_adversary(tamper.clone());
    alice.secure_msg_peer_relayed(&group, bob.id(), "sign the contract").unwrap();
    assert!(eventually(|| tamper.intercepted_count() >= 1));
    world.network().clear_adversary();

    // The corrupted envelope fails decryption/authentication at bob, so the
    // message is never surfaced as authentic.
    std::thread::sleep(Duration::from_millis(50));
    assert!(bob.receive_secure_messages().unwrap().is_empty());

    // With the adversary gone the same primitive works again.
    alice.secure_msg_peer_relayed(&group, bob.id(), "second try").unwrap();
    assert!(eventually(|| {
        bob.receive_secure_messages()
            .map(|m| m.iter().any(|m| m.text == "second try"))
            .unwrap_or(false)
    }));
    world.shutdown();
}

#[test]
fn forged_advertisements_cannot_hijack_secure_messages() {
    // Bob (a legitimate user) forges a pipe advertisement claiming Alice's
    // identifier, trying to receive messages meant for her.
    use jxta_overlay::advertisement::{Advertisement, PipeAdvertisement};
    let mut world = setup(23);
    let broker = world.broker_id();
    let group = GroupId::new("ops");

    let mut alice = world.secure_client("alice");
    let mut bob = world.secure_client("bob");
    let mut carol_like = world.secure_client("sender");
    alice.secure_join(broker, "alice", "s3cret-password").unwrap();
    bob.secure_join(broker, "bob", "bob-pw").unwrap();
    // The "sender" logs in as bob too (two devices, same account).
    carol_like.secure_join(broker, "bob", "bob-pw").unwrap();

    // Bob publishes a forged advertisement that claims to be Alice's pipe,
    // signed with his own legitimate credential.
    let forged = PipeAdvertisement {
        owner: alice.id(),
        group: group.clone(),
        name: "definitely-alice".into(),
    };
    let mut element = forged.to_element();
    jxta_overlay_secure::signed_adv::sign_advertisement(
        &mut element,
        bob.identity(),
        bob.credential().unwrap(),
    )
    .unwrap();
    bob.inner_mut()
        .publish_advertisement(&group, PipeAdvertisement::DOC_TYPE, &element.to_xml())
        .unwrap();

    // The sender tries to message Alice: the only advertisement available for
    // her identifier is the forged one, which fails validation, so no message
    // is ever sent with a key controlled by Bob.
    let result = carol_like.secure_msg_peer(&group, alice.id(), "for alice only");
    assert!(result.is_err());
    assert!(bob.receive_secure_messages().unwrap().is_empty());
}

// ----------------------------------------------------------------------
// Tree-repair batteries: adversaries on the epidemic (Plumtree) backbone
//
// The drop batteries above attack a two-broker mesh, where every event has
// exactly one path.  Once the federation engages the partial-view fabric,
// dissemination rides a pruned eager tree — so a dropped edge is no longer
// "the" path but "a" path, and the protocol owes us recovery through the
// lazy `IHave` → `Graft` channel, with hash-tree anti-entropy as the last
// resort when even that is cut.

mod tree_repair {
    use super::{EdgeAdversary, GroupId};
    use jxta_crypto::drbg::HmacDrbg;
    use jxta_overlay::broker::{Broker, BrokerConfig};
    use jxta_overlay::federation::InlineFederation;
    use jxta_overlay::metrics::FederationStats;
    use jxta_overlay::net::RandomDrop;
    use jxta_overlay::{LinkModel, PeerId, SimNetwork, UserDatabase};
    use std::collections::HashMap;
    use std::sync::Arc;

    const GROUP: &str = "ops";

    /// Builds an inline federation large enough (over small view capacities)
    /// that every broker engages the epidemic fabric, then runs a warm-up
    /// workload until duplicate digests have pruned the eager graph — so the
    /// lazy `IHave` links the batteries attack actually exist.
    fn epidemic_fixture(seed: u64, broker_count: usize) -> (Arc<SimNetwork>, InlineFederation) {
        let mut rng = HmacDrbg::from_seed_u64(seed);
        let network = SimNetwork::new(LinkModel::ideal());
        let database = Arc::new(UserDatabase::new());
        let brokers: Vec<Arc<Broker>> = (0..broker_count)
            .map(|i| {
                Broker::new(
                    PeerId::random(&mut rng),
                    BrokerConfig::named(format!("b{i}")).with_view_capacities(3, 8),
                    Arc::clone(&network),
                    Arc::clone(&database),
                )
            })
            .collect();
        let federation = InlineFederation::new(brokers);
        assert!(federation.broker(0).epidemic_engaged());

        let group = GroupId::new(GROUP);
        for round in 0..8 {
            for i in 0..federation.len() {
                federation.broker(i).index_and_distribute(
                    PeerId::random(&mut rng),
                    &group,
                    "jxta:PipeAdvertisement",
                    &format!("<warm r=\"{round}\" b=\"{i}\"/>"),
                );
                federation.pump();
                // Lazy digests batch until the repair tick now; the warm-up
                // wants the IHave -> Graft -> duplicate -> Prune cycle after
                // every publish, so drain them explicitly.
                flush_ihaves(&federation);
            }
            if backbone_stat(&federation, |s| s.prunes_sent) > 0 {
                break;
            }
        }
        assert!(federation.converged(), "warm-up workload converged");
        assert!(
            backbone_stat(&federation, |s| s.prunes_sent) > 0,
            "warm-up duplicates pruned the eager graph"
        );
        (network, federation)
    }

    fn backbone_stat(federation: &InlineFederation, pick: fn(&FederationStats) -> u64) -> u64 {
        (0..federation.len())
            .map(|i| pick(&federation.broker(i).federation_stats()))
            .sum()
    }

    /// Ships every broker's batched lazy `IHave` digests and pumps the
    /// deliveries (and the grafts they trigger) to quiescence.
    fn flush_ihaves(federation: &InlineFederation) {
        for i in 0..federation.len() {
            federation.broker(i).flush_ihaves();
        }
        federation.pump();
    }

    fn holds_advertisement(federation: &InlineFederation, index: usize, marker: &str) -> bool {
        federation
            .broker(index)
            .advertisement_snapshot()
            .iter()
            .any(|(_, _, _, xml)| xml.contains(marker))
    }

    /// Cut *every* eager in-edge of one broker mid-broadcast.  The victim can
    /// then only learn of the event through a lazy `IHave` digest, which it
    /// must answer with a `Graft` — the Plumtree repair path end to end.
    #[test]
    fn severed_eager_edges_recover_through_lazy_ihave_grafts() {
        let (network, federation) = epidemic_fixture(91, 10);
        let ids: Vec<PeerId> = (0..federation.len()).map(|i| federation.broker(i).id()).collect();

        // Invert the per-broker views into in-edge maps of the pruned tree.
        let mut in_eager: HashMap<PeerId, Vec<PeerId>> = HashMap::new();
        let mut in_lazy: HashMap<PeerId, Vec<PeerId>> = HashMap::new();
        for i in 0..federation.len() {
            let broker = federation.broker(i);
            for peer in broker.epidemic_eager_peers() {
                in_eager.entry(peer).or_default().push(broker.id());
            }
            for peer in broker.epidemic_lazy_peers() {
                in_lazy.entry(peer).or_default().push(broker.id());
            }
        }

        // A victim is attackable when all its eager in-edges can be cut while
        // at least one lazy in-edge (an `IHave` source) survives outside the
        // cut set.
        let (victim, scope) = ids
            .iter()
            .find_map(|v| {
                let eager_in = in_eager.get(v).cloned().unwrap_or_default();
                let lazy_in = in_lazy.get(v).cloned().unwrap_or_default();
                if eager_in.is_empty() || !lazy_in.iter().any(|l| !eager_in.contains(l)) {
                    return None;
                }
                let mut scope = eager_in;
                scope.push(*v);
                Some((*v, scope))
            })
            .expect("fixture yields a broker whose eager in-edges are cuttable");
        let victim_index = ids.iter().position(|id| *id == victim).unwrap();
        let origin = ids
            .iter()
            .position(|id| !scope.contains(id))
            .expect("an origin outside the cut set");

        let dropper = RandomDrop::between(17, 100, scope);
        network.set_adversary(dropper.clone());

        let grafts_before = backbone_stat(&federation, |s| s.grafts_sent);
        let mut rng = HmacDrbg::from_seed_u64(0xA11CE);
        federation.broker(origin).index_and_distribute(
            PeerId::random(&mut rng),
            &GroupId::new(GROUP),
            "jxta:PipeAdvertisement",
            "<healed/>",
        );
        federation.pump();
        flush_ihaves(&federation);

        assert!(dropper.dropped_count() > 0, "the eager in-edges did carry traffic");
        assert!(
            holds_advertisement(&federation, victim_index, "<healed/>"),
            "victim obtained the broadcast with every eager in-edge cut"
        );
        assert!(
            backbone_stat(&federation, |s| s.grafts_sent) > grafts_before,
            "recovery went through the IHave -> Graft channel"
        );

        // Brokers inside the cut set missed each other's traffic; once the
        // adversary lifts, anti-entropy settles the remainder.
        network.clear_adversary();
        assert!(federation.repair_until_converged(6).is_some());
    }

    /// A single cut eager edge: the broadcast routes around it — through the
    /// remaining eager forwards or a graft — and anti-entropy stays the last
    /// resort, not the first.
    #[test]
    fn a_single_cut_eager_edge_is_routed_around() {
        let (network, federation) = epidemic_fixture(92, 10);
        let eager = federation.broker(0).epidemic_eager_peers();
        assert!(!eager.is_empty(), "the origin has eager tree edges");
        let dropper = EdgeAdversary::drop_all(federation.broker(0).id(), eager[0]);
        network.set_adversary(dropper.clone());

        let mut rng = HmacDrbg::from_seed_u64(0xB0B);
        federation.broker(0).index_and_distribute(
            PeerId::random(&mut rng),
            &GroupId::new(GROUP),
            "jxta:PipeAdvertisement",
            "<around/>",
        );
        federation.pump();
        flush_ihaves(&federation);
        assert!(dropper.intercepted_count() > 0, "the cut edge was on the eager tree");

        network.clear_adversary();
        if !federation.converged() {
            assert!(
                federation.repair_until_converged(4).is_some(),
                "anti-entropy recovers what the tree could not re-route"
            );
        }
        assert!(federation.converged());
    }

    /// Black out the whole backbone mid-broadcast.  Plumtree has already
    /// flushed its one shot, so two repair layers race to heal the damage
    /// once the adversary lifts: the SWIM failure detector is the fast path
    /// (unanswered probes suspect the unreachable peers and repair the
    /// views, then refutation digs every live broker back out), and the
    /// hash-tree anti-entropy is the fallback that carries the event data
    /// itself.  Both must do their part — and nobody may stay falsely
    /// buried once the refutations land.
    #[test]
    fn blackout_broadcast_heals_through_swim_view_repair_and_anti_entropy() {
        let (network, federation) = epidemic_fixture(93, 9);
        let dropper = RandomDrop::new(5, 100);
        network.set_adversary(dropper.clone());

        let mut rng = HmacDrbg::from_seed_u64(0xEC11);
        federation.broker(0).index_and_distribute(
            PeerId::random(&mut rng),
            &GroupId::new(GROUP),
            "jxta:PipeAdvertisement",
            "<eclipse/>",
        );
        federation.pump();
        assert!(!federation.converged(), "a black-holed broadcast reaches nobody");
        assert!(dropper.dropped_count() > 0);

        // Keep the repair cadence running *during* the blackout: every
        // direct and indirect probe is eaten, so the SWIM fast path starts
        // suspecting unreachable peers — the view repair that, in a real
        // crash, evicts the dead broker long before anti-entropy notices.
        for _ in 0..4 {
            federation.repair();
        }
        assert!(
            backbone_stat(&federation, |s| s.swim_probes) > 0,
            "the repair cadence drives SWIM probes"
        );
        assert!(
            backbone_stat(&federation, |s| s.swim_suspicions) > 0,
            "a blacked-out backbone raises SWIM suspicions (the fast path engaged)"
        );

        // Lift the blackout.  Probe acks and alive-refutations clear the
        // false suspicions (everyone is actually alive) while anti-entropy
        // carries the black-holed event to the brokers eager push missed.
        network.clear_adversary();
        assert!(federation.repair_until_converged(10).is_some());
        for i in 0..federation.len() {
            assert!(holds_advertisement(&federation, i, "<eclipse/>"));
        }
        // No live broker stays buried: whatever Suspect/Dead verdicts the
        // blackout manufactured, refutation gossip and first-hand probe
        // contact dig back out.  The probe ring revisits a member every
        // `peers` ticks, so one full rotation (8 peers) plus slack bounds
        // the worst case even if every refutation broadcast were lost.
        for _ in 0..12 {
            federation.repair();
        }
        for i in 0..federation.len() {
            assert!(
                federation.broker(i).swim_dead_members().is_empty(),
                "broker {i} still holds a live peer dead after the blackout lifted"
            );
        }
    }
}
