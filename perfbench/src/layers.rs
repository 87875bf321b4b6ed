//! The traced run's replay pass: single layers timed by calling their public
//! functions directly on the workload's own keys, documents and messages.
//! Times are raw microseconds (median of individually timed calls).

use crate::report::Report;
use crate::timing::time_us;
use jxta_bigint::modular::mod_pow;
use jxta_bigint::BigUint;
use jxta_crypto::aes::{cbc_encrypt, Aes};
use jxta_crypto::{open_envelope, seal_envelope, sha256, HmacDrbg};
use jxta_overlay::advertisement::PipeAdvertisement;
use jxta_overlay::net::{Adversary, NetMessage};
use jxta_overlay::{GroupId, Message, MessageKind, PeerId};
use jxta_overlay_secure::credential::{Credential, CredentialRole};
use jxta_overlay_secure::identity::PeerIdentity;
use jxta_overlay_secure::signed_adv::{
    signed_pipe_advertisement, validate_signed_pipe_advertisement, TrustAnchors,
};
use std::sync::Mutex;

/// Modular exponentiation and RSA signatures on `identity`'s key.
pub fn rsa(report: &mut Report, identity: &PeerIdentity) {
    let public = identity.public_key();
    let base = BigUint::from_bytes_be(&[0x5A; 100]);
    report.set(
        "modular.mod_pow_pub_us",
        time_us(50, || mod_pow(&base, public.exponent(), public.modulus())),
    );
    report.set(
        "modular.mod_pow_priv_us",
        time_us(10, || {
            mod_pow(
                &base,
                identity.private_key().private_exponent(),
                public.modulus(),
            )
        }),
    );
    let content = b"perfbench replay: one signature over a short message";
    let signature = identity.sign(content).expect("signing with a valid key");
    report.set("rsa.sign_us", time_us(20, || identity.sign(content)));
    report.set(
        "rsa.verify_us",
        time_us(50, || public.verify(content, &signature)),
    );
}

/// Signed-advertisement path: sign, parse, XML-dsig verify, full
/// validation, and the credential `issuer` issued to `signer`.
pub fn signed_adv(
    report: &mut Report,
    group: &GroupId,
    signer: &PeerIdentity,
    credential: &Credential,
    trust: &TrustAnchors,
    issuer: &PeerIdentity,
) {
    let advertisement = PipeAdvertisement {
        owner: signer.peer_id(),
        group: group.clone(),
        name: "perfbench-replay-inbox".into(),
    };
    let sign = || signed_pipe_advertisement(&advertisement, signer, credential);
    let xml = sign().expect("signing a pipe advertisement");
    report.set("signed_adv.sign_us", time_us(20, sign));
    report.set(
        "signed_adv.validate_us",
        time_us(20, || {
            validate_signed_pipe_advertisement(&xml, signer.peer_id(), trust)
        }),
    );
    report.set("parser.parse_us", time_us(50, || jxta_xmldoc::parse(&xml)));
    let element = jxta_xmldoc::parse(&xml).expect("the signed advertisement parses");
    report.set(
        "dsig.verify_us",
        time_us(20, || {
            jxta_xmldoc::verify_element(&element, signer.public_key())
        }),
    );
    report.set(
        "credential.issue_us",
        time_us(20, || {
            Credential::issue(
                CredentialRole::Client,
                &credential.subject_name,
                signer.peer_id(),
                signer.public_key().clone(),
                &credential.issuer_name,
                3600,
                issuer.private_key(),
            )
        }),
    );
    report.set(
        "credential.verify_us",
        time_us(20, || credential.verify(issuer.public_key())),
    );
}

/// SHA-256 and AES-CBC throughput over 64 KiB.
pub fn hashing(report: &mut Report) {
    let data = vec![0xA5u8; 64 << 10];
    let mb = data.len() as f64 / 1e6;
    report.set(
        "sha2.sha256_mb_s",
        mb / (time_us(20, || sha256(&data)) / 1e6),
    );
    let aes = Aes::new(&[7u8; 16]).expect("a 128-bit key");
    report.set(
        "aes.cbc_mb_s",
        mb / (time_us(20, || cbc_encrypt(&aes, &[3u8; 16], &data)) / 1e6),
    );
}

/// Envelope seal/open of `inner` for `recipient`, and the codec of the
/// outer message that carries the envelope.  `size` is "256" or "64k".
pub fn envelope(
    report: &mut Report,
    size: &str,
    rng: &mut HmacDrbg,
    recipient: &PeerIdentity,
    inner: &[u8],
) -> Result<(), String> {
    let names: [&'static str; 4] = match size {
        "256" => [
            "envelope.seal_us.256",
            "envelope.open_us.256",
            "message.encode_us.256",
            "message.decode_us.256",
        ],
        _ => [
            "envelope.seal_us.64k",
            "envelope.open_us.64k",
            "message.encode_us.64k",
            "message.decode_us.64k",
        ],
    };
    let sealed = seal_envelope(rng, recipient.public_key(), inner).map_err(|e| e.to_string())?;
    report.set(
        names[0],
        time_us(20, || seal_envelope(rng, recipient.public_key(), inner)),
    );
    report.set(
        names[1],
        time_us(20, || open_envelope(recipient.private_key(), &sealed)),
    );
    let outer = Message::new(MessageKind::SecurePeerText, recipient.peer_id(), 1)
        .with_element("envelope", sealed.to_bytes());
    let bytes = outer.to_bytes();
    report.set(names[2], time_us(50, || outer.to_bytes()));
    report.set(names[3], time_us(50, || Message::from_bytes(&bytes)));
    Ok(())
}

/// Codec of one captured inter-broker gossip message.
pub fn sync_message(report: &mut Report, bytes: &[u8]) {
    if let Ok(message) = Message::from_bytes(bytes) {
        report.set(
            "message.decode_us.sync",
            time_us(200, || Message::from_bytes(bytes)),
        );
        report.set(
            "message.encode_us.sync",
            time_us(200, || message.to_bytes()),
        );
    }
}

/// A passive network observer that keeps copies of the first `limit`
/// messages of one kind (optionally only those sent by `from`).
pub struct Capture {
    kind: MessageKind,
    from: Option<PeerId>,
    limit: usize,
    seen: Mutex<Vec<NetMessage>>,
}

impl Capture {
    pub fn new(kind: MessageKind, from: Option<PeerId>, limit: usize) -> Self {
        Capture {
            kind,
            from,
            limit,
            seen: Mutex::new(Vec::new()),
        }
    }

    pub fn take(&self) -> Vec<NetMessage> {
        std::mem::take(&mut *self.seen.lock().expect("capture lock poisoned"))
    }
}

impl Adversary for Capture {
    fn observe(&self, message: &NetMessage) {
        let mut seen = self.seen.lock().expect("capture lock poisoned");
        if seen.len() >= self.limit || self.from.is_some_and(|f| f != message.from) {
            return;
        }
        if Message::from_bytes(&message.payload).is_ok_and(|m| m.kind == self.kind) {
            seen.push(message.clone());
        }
    }
}
