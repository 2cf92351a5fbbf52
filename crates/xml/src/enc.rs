//! Element-wise encryption in the style of W3C XML Encryption.
//!
//! An element subtree is replaced by an `<EncryptedData>` element:
//!
//! ```xml
//! <EncryptedData alg="chacha20+hmac-sha256" name="OriginalName">
//!   <CipherValue>hex…</CipherValue>
//!   <KeyWrap recipient="amy">hex…</KeyWrap>
//!   <KeyWrap recipient="john">hex…</KeyWrap>
//!   <KeyWrap recipient="peter" from="peter">hex…</KeyWrap>
//! </EncryptedData>
//! ```
//!
//! The subtree's canonical bytes are encrypted once under a fresh content
//! key (secret box); the content key is wrapped once per authorized reader.
//! This realizes the paper's requirement that "an XML element … can be
//! encrypted by different public keys of users or groups … so as to have
//! only a limited number of users able to read the data" (§2.3.1) with a
//! single ciphertext.
//!
//! **What a wrap costs** ([`WrapKey`]):
//!
//! * to a public key (no `from`): an ECIES sealed box, a walk of the
//!   reader's fixed-base table to write and a ladder to read;
//! * keyed from a secret builder and reader both hold (`from` names the
//!   party the reader shares it with; the reader itself for its own copy):
//!   a static box, no curve work on either side. The builder's own copy is
//!   keyed from its own X25519 secret; the TFC keys the author's copy from
//!   the static Diffie–Hellman secret they share, which each side memoises.
//!
//! **One ephemeral key per element.** The public-key wraps of one element
//! share one ephemeral X25519 key (their first 32 bytes): n such readers
//! cost one fixed-base multiplication and n table walks, not n of each,
//! and an element whose every reader holds a secret already draws none.
//! This is the randomness reuse of multi-recipient ElGamal/ECIES (Kurosawa
//! 2002; Bellare, Boldyreva, Staddon 2003): reader i's wrap key is derived
//! from `e·Rᵢ` *and* from both public keys (`dra_crypto::sealed` binds `e·B`
//! and `Rᵢ` in its KDF context), so the wrap keys of two readers are
//! distinct and a reader who learns `e·Rᵢ` learns nothing about `e·Rⱼ` short
//! of solving Diffie-Hellman; every wrap carries its own nonce and tag; and
//! all of them protect the same content key, which every reader is meant to
//! hold anyway. The ephemeral key never outlives the call, so two elements
//! never share one.

use crate::canon::canonicalize;
use crate::node::Element;
use crate::parser::parse;
use dra_crypto::b64;
use dra_crypto::sealed;
use dra_crypto::x25519::{X25519PublicKey, X25519Secret};

/// Element name of encrypted payloads.
pub const ENCRYPTED_DATA: &str = "EncryptedData";
const ALG: &str = "chacha20+hmac-sha256";

/// How one reader's copy of the content key is wrapped.
#[derive(Clone)]
pub enum WrapKey {
    /// An ECIES box to the reader's public key, under the element's one
    /// ephemeral key: a table walk to write, a ladder to read.
    Public(X25519PublicKey),
    /// A static box under `secret`, 32 bytes builder and reader both hold:
    /// the reader's own X25519 secret when `from` is the reader itself,
    /// otherwise the static Diffie–Hellman secret it shares with `from`.
    /// No curve work on either side.
    Static {
        /// The party the reader shares `secret` with (itself for its own
        /// copy); written as the wrap's `from` attribute.
        from: String,
        /// The wrap's secret.
        secret: [u8; 32],
    },
}

impl std::fmt::Debug for WrapKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WrapKey::Public(key) => f.debug_tuple("Public").field(key).finish(),
            WrapKey::Static { from, .. } => {
                f.debug_struct("Static").field("from", from).finish_non_exhaustive()
            }
        }
    }
}

/// An authorized reader of an encrypted element.
#[derive(Clone, Debug)]
pub struct Recipient {
    /// Logical identity (participant name) used to select the key wrap.
    pub id: String,
    /// How the reader's copy of the content key is wrapped.
    pub key: WrapKey,
}

impl Recipient {
    /// A reader the content key is sealed to by its public key.
    pub fn new(id: impl Into<String>, key: X25519PublicKey) -> Recipient {
        Recipient { id: id.into(), key: WrapKey::Public(key) }
    }

    /// A reader whose copy is keyed from `secret`, which it shares with
    /// `from` (see [`WrapKey::Static`]).
    pub fn keyed(id: impl Into<String>, from: impl Into<String>, secret: [u8; 32]) -> Recipient {
        Recipient { id: id.into(), key: WrapKey::Static { from: from.into(), secret } }
    }
}

/// The keys a reader opens its key wrap with.
pub trait ReaderKeys {
    /// The reader's X25519 secret: opens a wrap sealed to its public key,
    /// and is the secret of the copy it built for itself.
    fn secret(&self) -> &X25519Secret;

    /// The static secret the reader shares with `peer`, which opens a copy
    /// `peer` keyed for it; `None` when it shares none.
    fn shared_with(&self, _peer: &str) -> Option<[u8; 32]> {
        None
    }
}

impl ReaderKeys for X25519Secret {
    fn secret(&self) -> &X25519Secret {
        self
    }
}

/// The context a static wrap is bound to: who keyed it, and for whom.
fn wrap_context(from: &str, recipient: &str) -> Vec<u8> {
    let mut context = Vec::with_capacity(15 + from.len() + recipient.len());
    context.extend_from_slice(b"KeyWrap");
    context.extend_from_slice(&(from.len() as u64).to_be_bytes());
    context.extend_from_slice(from.as_bytes());
    context.extend_from_slice(recipient.as_bytes());
    context
}

/// Errors from decrypting an `<EncryptedData>` element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncryptError {
    /// The element is not a well-formed `<EncryptedData>`.
    Malformed(String),
    /// No key wrap addressed to the requesting recipient.
    NotARecipient,
    /// Cryptographic failure (wrong key, tampered ciphertext).
    Crypto,
    /// The decrypted plaintext failed to parse back into an element.
    BadPlaintext,
}

impl std::fmt::Display for EncryptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncryptError::Malformed(m) => write!(f, "malformed EncryptedData: {m}"),
            EncryptError::NotARecipient => write!(f, "no key wrap for this recipient"),
            EncryptError::Crypto => write!(f, "decryption failed"),
            EncryptError::BadPlaintext => write!(f, "plaintext is not a valid element"),
        }
    }
}

impl std::error::Error for EncryptError {}

/// Encrypt `el` so that exactly the given recipients can recover it.
///
/// Panics if `recipients` is empty — encrypting to nobody would destroy the
/// data, which is never what a security policy means.
pub fn encrypt_element(el: &Element, recipients: &[Recipient]) -> Element {
    assert!(!recipients.is_empty(), "element-wise encryption requires at least one recipient");
    let plaintext = canonicalize(el);
    let mut content_key = [0u8; 32];
    dra_crypto::random_bytes(&mut content_key);
    let ciphertext = sealed::secretbox_seal(&content_key, &plaintext);

    let mut out = Element::new(ENCRYPTED_DATA)
        .attr("alg", ALG)
        .attr("name", el.name.clone())
        .child(Element::new("CipherValue").text(b64::encode(&ciphertext)));
    // drawn for the first public-key wrap, shared by the rest
    let mut ephemeral = None;
    for r in recipients {
        let mut wrap = Element::new("KeyWrap").attr("recipient", r.id.clone());
        let wrapped = match &r.key {
            WrapKey::Public(key) => {
                let eph = ephemeral.get_or_insert_with(X25519Secret::generate);
                sealed::seal_with_ephemeral(eph, key, &content_key)
            }
            WrapKey::Static { from, secret } => {
                wrap.set_attr("from", from.clone());
                sealed::seal_static(secret, &wrap_context(from, &r.id), &content_key)
            }
        };
        out.push_child(wrap.text(b64::encode(&wrapped)));
    }
    out
}

/// True if the element is an `<EncryptedData>` wrapper.
pub fn is_encrypted(el: &Element) -> bool {
    el.name == ENCRYPTED_DATA
}

/// List the recipient ids that can open this `<EncryptedData>`.
pub fn recipients_of(el: &Element) -> Vec<&str> {
    el.find_children("KeyWrap").filter_map(|k| k.get_attr("recipient")).collect()
}

/// Decrypt an `<EncryptedData>` element as `recipient_id`, holding `keys`
/// (an [`X25519Secret`] is enough for every wrap but one keyed from a
/// secret shared with another party).
pub fn decrypt_element<K: ReaderKeys + ?Sized>(
    el: &Element,
    recipient_id: &str,
    keys: &K,
) -> Result<Element, EncryptError> {
    if el.name != ENCRYPTED_DATA {
        return Err(EncryptError::Malformed(format!(
            "expected <{ENCRYPTED_DATA}>, found <{}>",
            el.name
        )));
    }
    let cipher_hex = el
        .find_child("CipherValue")
        .ok_or_else(|| EncryptError::Malformed("missing CipherValue".into()))?
        .text_content();
    let ciphertext =
        b64::decode(&cipher_hex).ok_or_else(|| EncryptError::Malformed("bad base64".into()))?;

    let wrap = el
        .find_children("KeyWrap")
        .find(|k| k.get_attr("recipient") == Some(recipient_id))
        .ok_or(EncryptError::NotARecipient)?;
    let wrapped = b64::decode(&wrap.text_content())
        .ok_or_else(|| EncryptError::Malformed("bad key wrap base64".into()))?;

    let content_key_vec = match wrap.get_attr("from") {
        None => sealed::open(keys.secret(), &wrapped),
        Some(from) => {
            let secret = if from == recipient_id {
                *keys.secret().as_bytes()
            } else {
                keys.shared_with(from).ok_or(EncryptError::Crypto)?
            };
            sealed::open_static(&secret, &wrap_context(from, recipient_id), &wrapped)
        }
    };
    let content_key: [u8; 32] = content_key_vec
        .map_err(|_| EncryptError::Crypto)?
        .try_into()
        .map_err(|_| EncryptError::Crypto)?;
    let plaintext =
        sealed::secretbox_open(&content_key, &ciphertext).map_err(|_| EncryptError::Crypto)?;
    let text = String::from_utf8(plaintext).map_err(|_| EncryptError::BadPlaintext)?;
    parse(&text).map_err(|_| EncryptError::BadPlaintext)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(seed: u8) -> (X25519Secret, X25519PublicKey) {
        let s = X25519Secret::from_bytes([seed; 32]);
        let p = s.public_key();
        (s, p)
    }

    fn payload() -> Element {
        Element::new("Field").attr("name", "amount").text("12,500 USD")
    }

    #[test]
    fn single_recipient_roundtrip() {
        let (sec, pubk) = keys(1);
        let enc = encrypt_element(&payload(), &[Recipient::new("amy", pubk)]);
        assert!(is_encrypted(&enc));
        assert_eq!(enc.get_attr("name"), Some("Field"));
        let dec = decrypt_element(&enc, "amy", &sec).unwrap();
        assert_eq!(dec, payload());
    }

    #[test]
    fn multi_recipient_any_can_open() {
        let (sec_a, pub_a) = keys(1);
        let (sec_b, pub_b) = keys(2);
        let enc = encrypt_element(
            &payload(),
            &[Recipient::new("amy", pub_a), Recipient::new("bob", pub_b)],
        );
        assert_eq!(recipients_of(&enc), vec!["amy", "bob"]);
        assert_eq!(decrypt_element(&enc, "amy", &sec_a).unwrap(), payload());
        assert_eq!(decrypt_element(&enc, "bob", &sec_b).unwrap(), payload());
    }

    #[test]
    fn key_wraps_of_one_element_share_one_ephemeral_key() {
        let readers: Vec<_> = (1..=3).map(keys).collect();
        let recipients: Vec<Recipient> = readers
            .iter()
            .enumerate()
            .map(|(i, (_, p))| Recipient::new(format!("r{i}"), *p))
            .collect();
        let ephemerals = |enc: &Element| -> Vec<Vec<u8>> {
            enc.find_children("KeyWrap")
                .map(|k| b64::decode(&k.text_content()).unwrap()[..32].to_vec())
                .collect()
        };
        let enc = encrypt_element(&payload(), &recipients);
        let eph = ephemerals(&enc);
        assert_eq!(eph.len(), 3);
        assert!(eph.iter().all(|e| *e == eph[0]), "one ephemeral key per element");
        let other = encrypt_element(&payload(), &recipients);
        assert_ne!(ephemerals(&other)[0], eph[0], "and a fresh one for the next element");
        // the wraps themselves differ: per-reader keys, per-wrap nonces
        let wraps: Vec<String> = enc.find_children("KeyWrap").map(|k| k.text_content()).collect();
        assert!(wraps[0] != wraps[1] && wraps[1] != wraps[2] && wraps[0] != wraps[2]);
        for (i, (secret, _)) in readers.iter().enumerate() {
            assert_eq!(decrypt_element(&enc, &format!("r{i}"), secret).unwrap(), payload());
        }
        // a non-reader cannot open, under its own name or a reader's
        let (outsider, _) = keys(9);
        assert_eq!(decrypt_element(&enc, "r9", &outsider), Err(EncryptError::NotARecipient));
        assert_eq!(decrypt_element(&enc, "r0", &outsider), Err(EncryptError::Crypto));
        // nor does one reader's key open another reader's wrap
        assert_eq!(decrypt_element(&enc, "r1", &readers[0].0), Err(EncryptError::Crypto));
    }

    /// A reader holding a secret it shares with one peer.
    struct Paired<'a>(&'a X25519Secret, &'a str, [u8; 32]);

    impl ReaderKeys for Paired<'_> {
        fn secret(&self) -> &X25519Secret {
            self.0
        }
        fn shared_with(&self, peer: &str) -> Option<[u8; 32]> {
            (peer == self.1).then_some(self.2)
        }
    }

    #[test]
    fn keyed_wraps_cost_no_curve_work_and_open_only_for_their_reader() {
        use dra_crypto::x25519::{fixed_base, ladders};
        let (author, _) = keys(1);
        let (tfc, _) = keys(2);
        let pairwise = tfc.diffie_hellman(&author.public_key());
        let readers = [
            Recipient::keyed("tfc", "tfc", *tfc.as_bytes()),
            Recipient::keyed("amy", "tfc", pairwise),
        ];
        let before = (ladders(), fixed_base());
        let enc = encrypt_element(&payload(), &readers);
        assert_eq!((ladders(), fixed_base()), before, "no ephemeral key, no ladder");
        assert_eq!(recipients_of(&enc), vec!["tfc", "amy"]);
        let froms: Vec<_> = enc.find_children("KeyWrap").map(|k| k.get_attr("from")).collect();
        assert_eq!(froms, vec![Some("tfc"), Some("tfc")]);

        // the builder opens its own copy with its X25519 secret alone, the
        // author with the secret it shares with the builder
        assert_eq!(decrypt_element(&enc, "tfc", &tfc).unwrap(), payload());
        let amy = Paired(&author, "tfc", author.diffie_hellman(&tfc.public_key()));
        assert_eq!(decrypt_element(&enc, "amy", &amy).unwrap(), payload());
        assert_eq!((ladders() - before.0, fixed_base()), (1, before.1), "amy's one derivation");
        // without it, or under another name, nobody opens anything
        assert_eq!(decrypt_element(&enc, "amy", &author), Err(EncryptError::Crypto));
        assert_eq!(decrypt_element(&enc, "tfc", &author), Err(EncryptError::Crypto));
        assert_eq!(decrypt_element(&enc, "amy", &tfc), Err(EncryptError::Crypto));
        let (outsider, _) = keys(3);
        let posing = Paired(&outsider, "tfc", outsider.diffie_hellman(&tfc.public_key()));
        for name in ["tfc", "amy"] {
            assert_eq!(decrypt_element(&enc, name, &posing), Err(EncryptError::Crypto), "{name}");
        }
        assert_eq!(decrypt_element(&enc, "eve", &posing), Err(EncryptError::NotARecipient));

        // a public-key reader next to them draws the element's one ephemeral key
        let mixed = [readers[0].clone(), Recipient::new("bob", keys(4).1)];
        let before = fixed_base();
        let enc = encrypt_element(&payload(), &mixed);
        assert_eq!(fixed_base() - before, 1);
        assert_eq!(decrypt_element(&enc, "bob", &keys(4).0).unwrap(), payload());
        assert_eq!(decrypt_element(&enc, "tfc", &tfc).unwrap(), payload());
    }

    #[test]
    fn non_recipient_cannot_open() {
        let (_, pub_a) = keys(1);
        let (sec_c, _) = keys(3);
        let enc = encrypt_element(&payload(), &[Recipient::new("amy", pub_a)]);
        assert_eq!(decrypt_element(&enc, "carol", &sec_c), Err(EncryptError::NotARecipient));
        // Even claiming to be amy fails with the wrong key.
        assert_eq!(decrypt_element(&enc, "amy", &sec_c), Err(EncryptError::Crypto));
    }

    #[test]
    fn tampered_ciphertext_detected() {
        let (sec, pubk) = keys(1);
        let mut enc = encrypt_element(&payload(), &[Recipient::new("amy", pubk)]);
        // flip a hex digit of the cipher value
        let cv = enc.find_child_mut("CipherValue").unwrap();
        let mut text = cv.text_content();
        let flipped = if text.as_bytes()[10] == b'0' { "1" } else { "0" };
        text.replace_range(10..11, flipped);
        cv.children.clear();
        cv.children.push(crate::node::Node::Text(text));
        assert_eq!(decrypt_element(&enc, "amy", &sec), Err(EncryptError::Crypto));
    }

    #[test]
    fn ciphertext_survives_wire_roundtrip() {
        let (sec, pubk) = keys(7);
        let enc = encrypt_element(&payload(), &[Recipient::new("amy", pubk)]);
        let reparsed = crate::parser::parse(&crate::writer::to_string(&enc)).unwrap();
        assert_eq!(decrypt_element(&reparsed, "amy", &sec).unwrap(), payload());
    }

    #[test]
    #[should_panic(expected = "at least one recipient")]
    fn empty_recipients_panics() {
        encrypt_element(&payload(), &[]);
    }

    #[test]
    fn malformed_input_errors() {
        let (sec, _) = keys(1);
        let not_enc = Element::new("Plain");
        assert!(matches!(decrypt_element(&not_enc, "amy", &sec), Err(EncryptError::Malformed(_))));
        let no_cipher = Element::new(ENCRYPTED_DATA);
        assert!(matches!(
            decrypt_element(&no_cipher, "amy", &sec),
            Err(EncryptError::Malformed(_))
        ));
    }

    #[test]
    fn nested_structure_preserved() {
        let (sec, pubk) = keys(9);
        let complex =
            Element::new("Form").child(Element::new("Field").attr("name", "x").text("1")).child(
                Element::new("Group").child(Element::new("Field").attr("name", "y").text("<&\">")),
            );
        let enc = encrypt_element(&complex, &[Recipient::new("p", pubk)]);
        assert_eq!(decrypt_element(&enc, "p", &sec).unwrap(), complex);
    }
}
