//! The backbone wire codec: numbered entry lists and typed gossip events.
//!
//! Inter-broker messages that carry a list of entries spell it as one count
//! element plus `{prefix}{i}-{field}` elements (see [`crate::message`]).
//! [`EntryList`] is the only writer and the only reader of that layout: the
//! reader indexes the elements in one pass and clamps the wire count to the
//! message's element count, so neither a forged count nor a bulk message can
//! turn a decode into an unbounded or quadratic loop.
//!
//! `GossipEvent` is the typed form of one `BrokerSync` entry: the version
//! header every replicated write carries (`seq`, optional `vorigin`, the
//! `bcast` marker) plus one `GossipOp` variant per op.  Brokers decode an event
//! once, apply it, forward it and cache it for Plumtree grafts as that typed
//! value; an entry that does not decode is neither applied nor forwarded.

use crate::group::GroupId;
use crate::id::PeerId;
use crate::message::Message;
use crate::plumtree::GossipId;

/// The fields of one entry: `(field, content)` pairs in wire order.
pub(crate) type Fields = Vec<(&'static str, Vec<u8>)>;

/// One numbered entry list: a count element and a per-entry name prefix.
#[derive(Debug, Clone, Copy)]
pub struct EntryList {
    prefix: &'static str,
    count: &'static str,
}

/// `BrokerSync` gossip events: `count` + `e{i}-*`, one `GossipEvent` each.
pub const SYNC_EVENTS: EntryList = EntryList {
    prefix: "e",
    count: "count",
};
/// Gossip ids of `PlumtreeIHave` / `PlumtreeGraft`: `count` + `g{i}-origin`/`-seq`.
pub const GOSSIP_IDS: EntryList = EntryList {
    prefix: "g",
    count: "count",
};
/// `ShardResponse` results: `count` + `r{i}-*`.
pub const SHARD_RESULTS: EntryList = EntryList {
    prefix: "r",
    count: "count",
};
/// Anti-entropy advertisement section: `a-count` + `a{i}-*`.
pub const ADV_SECTION: EntryList = EntryList {
    prefix: "a",
    count: "a-count",
};
/// Anti-entropy membership section: `m-count` + `m{i}-*`.
pub const MEMBERSHIP_SECTION: EntryList = EntryList {
    prefix: "m",
    count: "m-count",
};
/// Anti-entropy presence section: `p-count` + `p{i}-*`.
pub const PRESENCE_SECTION: EntryList = EntryList {
    prefix: "p",
    count: "p-count",
};

impl EntryList {
    /// Appends the count element, then every entry's fields.
    pub(crate) fn write<T>(
        self,
        message: &mut Message,
        entries: &[T],
        fields: impl Fn(&T) -> Fields,
    ) {
        message.push_element(self.count, entries.len().to_string().into_bytes());
        for (i, entry) in entries.iter().enumerate() {
            for (field, content) in fields(entry) {
                message.push_element(format!("{}{i}-{field}", self.prefix), content);
            }
        }
    }

    /// Reads the list in one pass over the elements.  `None` when the count
    /// element is missing or not a number.  Entries past the wire count are
    /// ignored, and the count itself is clamped to the element count (an
    /// entry takes at least one element).  The first occurrence of a
    /// repeated field wins, as with [`Message::element`].
    pub fn read(self, message: &Message) -> Option<Vec<Entry<'_>>> {
        let count: usize = std::str::from_utf8(message.element(self.count)?)
            .ok()?
            .parse()
            .ok()?;
        let mut entries = vec![Entry::default(); count.min(message.element_count())];
        for element in &message.elements {
            if let Some((i, field)) = self.locate(&element.name) {
                if let Some(entry) = entries.get_mut(i) {
                    entry.fields.push((field, &element.content));
                }
            }
        }
        Some(entries)
    }

    /// Splits `{prefix}{i}-{field}` into `(i, field)`; `i` must be written
    /// the way [`EntryList::write`] writes it (decimal, no leading zero).
    fn locate(self, name: &str) -> Option<(usize, &str)> {
        let (index, field) = name.strip_prefix(self.prefix)?.split_once('-')?;
        let canonical =
            index.bytes().all(|b| b.is_ascii_digit()) && (index == "0" || !index.starts_with('0'));
        Some((index.parse().ok().filter(|_| canonical)?, field))
    }
}

/// One decoded entry of an [`EntryList`].
#[derive(Debug, Clone, Default)]
pub struct Entry<'m> {
    fields: Vec<(&'m str, &'m [u8])>,
}

impl<'m> Entry<'m> {
    /// Raw content of `field`.
    pub fn raw(&self, field: &str) -> Option<&'m [u8]> {
        self.fields
            .iter()
            .find(|(name, _)| *name == field)
            .map(|(_, content)| *content)
    }

    /// `field` decoded as (lossy) UTF-8.
    pub fn text(&self, field: &str) -> Option<String> {
        self.raw(field)
            .map(|b| String::from_utf8_lossy(b).into_owned())
    }

    /// `field` parsed as a number (or any other `FromStr` value).
    pub fn parse<T: std::str::FromStr>(&self, field: &str) -> Option<T> {
        std::str::from_utf8(self.raw(field)?).ok()?.parse().ok()
    }

    /// `field` parsed as a peer URN.
    pub fn peer(&self, field: &str) -> Option<PeerId> {
        PeerId::from_urn(std::str::from_utf8(self.raw(field)?).ok()?)
    }
}

/// The fields of a gossip id entry ([`GOSSIP_IDS`]).
pub(crate) fn gossip_id_fields(&(origin, seq): &GossipId) -> Fields {
    vec![
        ("origin", origin.to_urn().into_bytes()),
        ("seq", seq.to_string().into_bytes()),
    ]
}

/// Decodes a gossip id entry ([`GOSSIP_IDS`]).
pub(crate) fn gossip_id(entry: &Entry) -> Option<GossipId> {
    Some((entry.peer("origin")?, entry.parse("seq")?))
}

/// One replicated write, as gossiped in a `BrokerSync` digest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct GossipEvent {
    /// Version sequence number (`seq`).
    pub seq: u64,
    /// Version origin (`vorigin`), when it is not the transport sender:
    /// migrated entries keep their original version, and epidemic
    /// broadcasts name their origin because forwarders relay them.
    pub vorigin: Option<PeerId>,
    /// Broadcast marker (`bcast`): epidemic receivers forward the event.
    pub bcast: bool,
    /// What the write does (`op` and its fields).
    pub op: GossipOp,
}

/// The op of a [`GossipEvent`], one variant per wire `op` value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum GossipOp {
    /// `publish`: an advertisement index write (`group`, `doc-type`,
    /// `owner`, `xml`).
    Publish {
        group: GroupId,
        doc_type: String,
        owner: PeerId,
        xml: String,
    },
    /// `join`: `peer` is homed at the version origin, member of `groups`
    /// (comma-joined on the wire).
    Join { peer: PeerId, groups: Vec<GroupId> },
    /// `leave`: `peer` left the federation.
    Leave { peer: PeerId },
    /// `membership`: one migrated `(group, peer)` entry; its presence
    /// version is `(seq, vrank, vorigin)`, so `vorigin` is required.
    Membership {
        peer: PeerId,
        group: GroupId,
        vrank: u8,
    },
    /// `ext`: an opaque, self-authenticating extension-state `blob`, kept
    /// as raw bytes.
    Ext { blob: Vec<u8> },
    /// `swim-suspect`: `peer` is suspected at incarnation `sinc`.
    SwimSuspect { peer: PeerId, sinc: u64 },
    /// `swim-alive`: `peer` refutes at incarnation `sinc`.
    SwimAlive { peer: PeerId, sinc: u64 },
    /// `swim-dead`: `peer` was confirmed dead at incarnation `sinc`.
    SwimDead { peer: PeerId, sinc: u64 },
}

impl GossipEvent {
    /// An event versioned `seq` at the transport sender, not a broadcast.
    pub fn new(seq: u64, op: GossipOp) -> Self {
        GossipEvent {
            seq,
            vorigin: None,
            bcast: false,
            op,
        }
    }

    /// The gossip id of a broadcast event: its `(vorigin, seq)` version.
    pub fn gossip_id(&self) -> Option<GossipId> {
        Some((self.vorigin?, self.seq))
    }

    /// The event's entry fields ([`SYNC_EVENTS`]): `op`, `seq`, `vorigin`
    /// and `bcast` when set, then the op's own fields.
    pub fn fields(&self) -> Fields {
        let text = |s: &str| s.as_bytes().to_vec();
        let urn = |peer: &PeerId| peer.to_urn().into_bytes();
        let verdict = |peer: &PeerId, sinc: &u64| {
            vec![("peer", urn(peer)), ("sinc", sinc.to_string().into_bytes())]
        };
        let (op, body) = match &self.op {
            GossipOp::Publish {
                group,
                doc_type,
                owner,
                xml,
            } => (
                "publish",
                vec![
                    ("group", text(group.as_str())),
                    ("doc-type", text(doc_type)),
                    ("owner", urn(owner)),
                    ("xml", text(xml)),
                ],
            ),
            GossipOp::Join { peer, groups } => {
                let groups: Vec<&str> = groups.iter().map(GroupId::as_str).collect();
                (
                    "join",
                    vec![("peer", urn(peer)), ("groups", text(&groups.join(",")))],
                )
            }
            GossipOp::Leave { peer } => ("leave", vec![("peer", urn(peer))]),
            GossipOp::Membership { peer, group, vrank } => (
                "membership",
                vec![
                    ("vrank", vrank.to_string().into_bytes()),
                    ("peer", urn(peer)),
                    ("group", text(group.as_str())),
                ],
            ),
            GossipOp::Ext { blob } => ("ext", vec![("blob", blob.clone())]),
            GossipOp::SwimSuspect { peer, sinc } => ("swim-suspect", verdict(peer, sinc)),
            GossipOp::SwimAlive { peer, sinc } => ("swim-alive", verdict(peer, sinc)),
            GossipOp::SwimDead { peer, sinc } => ("swim-dead", verdict(peer, sinc)),
        };
        let mut fields = vec![("op", text(op)), ("seq", self.seq.to_string().into_bytes())];
        fields.extend(self.vorigin.map(|origin| ("vorigin", urn(&origin))));
        fields.extend(self.bcast.then(|| ("bcast", b"1".to_vec())));
        fields.extend(body);
        fields
    }

    /// Decodes one [`SYNC_EVENTS`] entry.  `None` for an unknown `op`, a
    /// missing or malformed field, or a `vorigin` that is present but not a
    /// peer URN.
    pub fn decode(entry: &Entry) -> Option<GossipEvent> {
        let vorigin = match entry.raw("vorigin") {
            Some(_) => Some(entry.peer("vorigin")?),
            None => None,
        };
        let peer = || entry.peer("peer");
        let verdict = || Some((peer()?, entry.parse("sinc")?));
        let op = match entry.raw("op")? {
            b"publish" => GossipOp::Publish {
                group: GroupId::new(entry.text("group")?),
                doc_type: entry.text("doc-type")?,
                owner: entry.peer("owner")?,
                xml: entry.text("xml")?,
            },
            b"join" => GossipOp::Join {
                peer: peer()?,
                groups: entry
                    .text("groups")?
                    .split(',')
                    .filter(|g| !g.is_empty())
                    .map(GroupId::new)
                    .collect(),
            },
            b"leave" => GossipOp::Leave { peer: peer()? },
            b"membership" => GossipOp::Membership {
                peer: peer()?,
                group: GroupId::new(entry.text("group")?),
                vrank: entry.parse("vrank").filter(|_| vorigin.is_some())?,
            },
            b"ext" => GossipOp::Ext {
                blob: entry.raw("blob")?.to_vec(),
            },
            b"swim-suspect" => {
                verdict().map(|(peer, sinc)| GossipOp::SwimSuspect { peer, sinc })?
            }
            b"swim-alive" => verdict().map(|(peer, sinc)| GossipOp::SwimAlive { peer, sinc })?,
            b"swim-dead" => verdict().map(|(peer, sinc)| GossipOp::SwimDead { peer, sinc })?,
            _ => return None,
        };
        Some(GossipEvent {
            seq: entry.parse("seq")?,
            vorigin,
            bcast: entry.raw("bcast") == Some(b"1"),
            op,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageKind;
    use crate::plumtree::PlumtreeState;
    use jxta_crypto::drbg::HmacDrbg;

    fn peers(n: usize) -> Vec<PeerId> {
        let mut rng = HmacDrbg::from_seed_u64(0xC0DEC);
        (0..n).map(|_| PeerId::random(&mut rng)).collect()
    }

    /// One event per op, with the optional header fields set on some.
    fn every_variant(ids: &[PeerId]) -> Vec<GossipEvent> {
        let group = GroupId::new("math");
        let ops = vec![
            GossipOp::Publish {
                group: group.clone(),
                doc_type: "jxta:PipeAdvertisement".to_string(),
                owner: ids[0],
                xml: "<adv n=\"1\"/>".to_string(),
            },
            GossipOp::Join {
                peer: ids[1],
                groups: vec![group.clone(), GroupId::new("chem")],
            },
            GossipOp::Join {
                peer: ids[1],
                groups: Vec::new(),
            },
            GossipOp::Leave { peer: ids[1] },
            GossipOp::Membership {
                peer: ids[2],
                group,
                vrank: 1,
            },
            GossipOp::Ext {
                blob: vec![0xff, 0xfe, 0x00, b'x', 0xc3],
            },
            GossipOp::SwimSuspect {
                peer: ids[3],
                sinc: 7,
            },
            GossipOp::SwimAlive {
                peer: ids[3],
                sinc: 8,
            },
            GossipOp::SwimDead {
                peer: ids[3],
                sinc: u64::MAX,
            },
        ];
        ops.into_iter()
            .enumerate()
            .map(|(n, op)| {
                let vorigin =
                    (n % 2 == 0 || matches!(op, GossipOp::Membership { .. })).then_some(ids[4]);
                GossipEvent {
                    vorigin,
                    bcast: n % 3 == 0,
                    ..GossipEvent::new(n as u64 + 1, op)
                }
            })
            .collect()
    }

    /// Encodes `events` as a `BrokerSync` digest, through the wire bytes.
    fn digest(events: &[GossipEvent]) -> Message {
        let mut message = Message::new(MessageKind::BrokerSync, peers(1)[0], 0);
        SYNC_EVENTS.write(&mut message, events, GossipEvent::fields);
        Message::from_bytes(&message.to_bytes()).unwrap()
    }

    fn decode_all(message: &Message) -> Vec<Option<GossipEvent>> {
        SYNC_EVENTS
            .read(message)
            .unwrap()
            .iter()
            .map(GossipEvent::decode)
            .collect()
    }

    #[test]
    fn every_gossip_event_variant_round_trips() {
        let ids = peers(5);
        let events = every_variant(&ids);
        let decoded = decode_all(&digest(&events));
        assert_eq!(decoded, events.into_iter().map(Some).collect::<Vec<_>>());
    }

    #[test]
    fn a_publish_replayed_from_the_graft_cache_round_trips() {
        let ids = peers(5);
        let publish = every_variant(&ids).remove(0);
        let gid = publish
            .gossip_id()
            .expect("a broadcast carries its version origin");
        let mut tree = PlumtreeState::new(4);
        tree.cache_event(gid, publish.clone());
        let replayed = tree.cached(&gid).unwrap();
        assert_eq!(decode_all(&digest(&[replayed])), vec![Some(publish)]);
    }

    #[test]
    fn unknown_ops_and_missing_fields_do_not_decode() {
        let ids = peers(5);
        let events = every_variant(&ids);
        let mut message = digest(&events);
        // Break one event per way an entry can be malformed.
        let mut broken = |name: &str, content: Option<&[u8]>| {
            let at = message
                .elements
                .iter()
                .position(|e| e.name == name)
                .unwrap();
            match content {
                Some(content) => message.elements[at].content = content.to_vec(),
                None => drop(message.elements.remove(at)),
            }
        };
        broken("e0-op", Some(b"republish"));
        broken("e1-groups", None);
        broken("e3-seq", Some(b"-1"));
        broken("e4-vorigin", None);
        broken("e6-vorigin", Some(b"urn:jxta:peer:nope"));
        broken("e8-sinc", Some(b"many"));
        let decoded = decode_all(&message);
        for (i, event) in decoded.iter().enumerate() {
            let malformed = [0, 1, 3, 4, 6, 8].contains(&i);
            assert_eq!(event.is_none(), malformed, "event {i}: {event:?}");
        }
        assert_eq!(decoded[2], Some(events[2].clone()));
    }

    /// The reader indexes the elements once yet answers exactly what a
    /// linear per-name lookup would: the first occurrence of a repeated
    /// name wins, and names that `write` would never produce are ignored.
    #[test]
    fn entry_list_matches_linear_lookup() {
        let message = Message::new(MessageKind::ShardResponse, peers(1)[0], 0)
            .with_str("count", "3")
            .with_str("r0-xml", "first")
            .with_str("r1-xml", "b")
            .with_str("r0-xml", "shadowed")
            .with_str("r01-xml", "leading zero")
            .with_str("r+2-xml", "signed")
            .with_str("r3-xml", "past the count")
            .with_str("rx-xml", "no index");
        let entries = SHARD_RESULTS.read(&message).unwrap();
        assert_eq!(entries.len(), 3);
        for (i, entry) in entries.iter().enumerate() {
            assert_eq!(entry.text("xml"), message.element_str(&format!("r{i}-xml")));
        }
        assert_eq!(entries[2].raw("xml"), None);
    }

    #[test]
    fn wire_counts_are_clamped_and_a_missing_count_reads_as_no_list() {
        let id = peers(1)[0];
        let forged = Message::new(MessageKind::BrokerSync, id, 0)
            .with_str("count", &usize::MAX.to_string())
            .with_str("e0-op", "leave");
        assert_eq!(
            SYNC_EVENTS.read(&forged).map(|e| e.len()),
            Some(forged.element_count())
        );
        let missing =
            Message::new(MessageKind::AntiEntropySnapshot, id, 0).with_str("a0-xml", "<x/>");
        assert!(ADV_SECTION.read(&missing).is_none());
        let garbage = missing.with_str("a-count", "lots");
        assert!(ADV_SECTION.read(&garbage).is_none());
    }
}
