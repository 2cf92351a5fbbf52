//! Participants, key material and the PKI directory.
//!
//! Every actor in a DRA4WfMS deployment — workflow designers, activity
//! participants, TFC servers, portal servers — owns two keypairs: an Ed25519
//! signing key (nonrepudiation cascade) and an X25519 encryption key
//! (element-wise encryption). The [`Directory`] is the public half: the
//! cross-enterprise trust anchor that every AEA consults to verify embedded
//! signatures and address key wraps. The paper assumes such a PKI
//! ("the public keys of users or groups"); here it is an explicit value that
//! travels with the deployment configuration.

use crate::error::{WfError, WfResult};
use dra_crypto::ed25519::{Keypair, PublicKey};
use dra_crypto::sha2::Sha256;
use dra_crypto::x25519::{X25519PublicKey, X25519Secret};
use dra_xml::enc::ReaderKeys;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// The public identity of an actor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Identity {
    /// Logical name, unique within a deployment (e.g. "peter", "TFC").
    pub name: String,
    /// Ed25519 verification key.
    pub sign: PublicKey,
    /// X25519 encryption key.
    pub enc: X25519PublicKey,
}

/// The secret key material of an actor.
#[derive(Clone)]
pub struct Credentials {
    /// Logical name.
    pub name: String,
    /// Ed25519 signing keypair.
    pub sign: Keypair,
    /// X25519 decryption secret.
    pub enc: X25519Secret,
}

impl std::fmt::Debug for Credentials {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Credentials").field("name", &self.name).finish_non_exhaustive()
    }
}

impl Credentials {
    /// Generate fresh random credentials for `name`.
    pub fn generate(name: impl Into<String>) -> Credentials {
        Credentials { name: name.into(), sign: Keypair::generate(), enc: X25519Secret::generate() }
    }

    /// Deterministic credentials derived from a seed string — used by tests,
    /// examples and reproducible benchmarks. The two keys are domain-
    /// separated hashes of the seed.
    pub fn from_seed(name: impl Into<String>, seed: &str) -> Credentials {
        let name = name.into();
        let mut h = Sha256::new();
        h.update(b"dra4wfms.identity.sign");
        h.update(seed.as_bytes());
        let sign_seed = h.finalize();
        let mut h = Sha256::new();
        h.update(b"dra4wfms.identity.enc");
        h.update(seed.as_bytes());
        let enc_seed = h.finalize();
        Credentials {
            name,
            sign: Keypair::from_seed(sign_seed),
            enc: X25519Secret::from_bytes(enc_seed),
        }
    }

    /// The public identity matching these credentials.
    pub fn identity(&self) -> Identity {
        Identity { name: self.name.clone(), sign: self.sign.public, enc: self.enc.public_key() }
    }
}

/// Credentials alone open every key wrap but a copy keyed from a secret
/// shared with another party; [`ActorKeys`] opens that too.
impl ReaderKeys for Credentials {
    fn secret(&self) -> &X25519Secret {
        &self.enc
    }
}

/// The static Diffie–Hellman secrets one actor shares with its peers, each
/// derived on first use: one ladder per peer key over the actor's lifetime,
/// not one per use. Keyed by the peer's public key, so a directory entry
/// that changes derives afresh.
#[derive(Default)]
pub struct PeerSecrets(Mutex<HashMap<X25519PublicKey, [u8; 32]>>);

impl PeerSecrets {
    /// `own` × `peer`, derived on first use.
    pub fn get(&self, own: &X25519Secret, peer: &X25519PublicKey) -> [u8; 32] {
        let mut memo = self.0.lock().unwrap_or_else(|e| e.into_inner());
        *memo.entry(*peer).or_insert_with(|| own.diffie_hellman(peer))
    }
}

/// One actor's keys as a builder and reader of key wraps: its credentials,
/// the directory naming its peers, and the secrets it shares with them.
pub struct ActorKeys<'a> {
    /// The actor's own key material.
    pub creds: &'a Credentials,
    /// Where a peer's name resolves to its key.
    pub directory: &'a Directory,
    /// The memo of secrets shared with peers; it belongs to `creds`.
    pub peers: &'a PeerSecrets,
}

impl ActorKeys<'_> {
    /// The static secret this actor shares with the holder of `peer`.
    pub fn shared_with_key(&self, peer: &X25519PublicKey) -> [u8; 32] {
        self.peers.get(&self.creds.enc, peer)
    }
}

impl ReaderKeys for ActorKeys<'_> {
    fn secret(&self) -> &X25519Secret {
        &self.creds.enc
    }

    fn shared_with(&self, peer: &str) -> Option<[u8; 32]> {
        let id = self.directory.get(peer).ok()?;
        Some(self.shared_with_key(&id.enc))
    }
}

/// The deployment-wide directory of public identities (the PKI view),
/// including named **groups** — the paper's element-wise encryption
/// addresses "different public keys of users or groups" (§2.3.1); a group
/// audience expands to every member's key at encryption time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Directory {
    entries: BTreeMap<String, Identity>,
    groups: BTreeMap<String, Vec<String>>,
}

impl Directory {
    /// Empty directory.
    pub fn new() -> Directory {
        Directory::default()
    }

    /// Register an identity (replaces an existing entry of the same name).
    pub fn register(&mut self, id: Identity) {
        self.entries.insert(id.name.clone(), id);
    }

    /// Build a directory from a set of credentials' public halves.
    pub fn from_credentials<'a>(creds: impl IntoIterator<Item = &'a Credentials>) -> Directory {
        let mut d = Directory::new();
        for c in creds {
            d.register(c.identity());
        }
        d
    }

    /// Look up by name.
    pub fn get(&self, name: &str) -> WfResult<&Identity> {
        self.entries.get(name).ok_or_else(|| WfError::UnknownIdentity(name.to_string()))
    }

    /// Look up the signing key owner by public key (reverse lookup).
    pub fn name_of_signer(&self, key: &PublicKey) -> Option<&str> {
        self.entries.values().find(|id| id.sign == *key).map(|id| id.name.as_str())
    }

    /// All registered names.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Number of registered identities.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Register a named group. Member names must already be registered;
    /// unknown members are rejected so a typo cannot silently shrink an
    /// audience.
    pub fn register_group(&mut self, name: impl Into<String>, members: &[&str]) -> WfResult<()> {
        let name = name.into();
        if self.entries.contains_key(&name) {
            return Err(WfError::Policy(format!(
                "group '{name}' collides with a registered identity"
            )));
        }
        let mut list = Vec::with_capacity(members.len());
        for m in members {
            self.get(m)?;
            list.push(m.to_string());
        }
        self.groups.insert(name, list);
        Ok(())
    }

    /// Expand a reader name to concrete identities: a group expands to its
    /// members, an individual to itself.
    pub fn expand(&self, name: &str) -> WfResult<Vec<&Identity>> {
        if let Some(members) = self.groups.get(name) {
            return members.iter().map(|m| self.get(m)).collect();
        }
        Ok(vec![self.get(name)?])
    }

    /// True when `reader` covers `participant`: either the same name or a
    /// group containing it.
    pub fn covers(&self, reader: &str, participant: &str) -> bool {
        if reader == participant {
            return true;
        }
        self.groups.get(reader).is_some_and(|members| members.iter().any(|m| m == participant))
    }

    /// True when the directory has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_credentials_are_deterministic() {
        let a = Credentials::from_seed("peter", "seed-1");
        let b = Credentials::from_seed("peter", "seed-1");
        assert_eq!(a.identity(), b.identity());
        let c = Credentials::from_seed("peter", "seed-2");
        assert_ne!(a.identity().sign, c.identity().sign);
        assert_ne!(a.identity().enc, c.identity().enc);
    }

    #[test]
    fn sign_and_enc_keys_are_independent() {
        let a = Credentials::from_seed("x", "s");
        // the signing seed and encryption seed must differ (domain separation)
        assert_ne!(a.sign.secret.seed(), a.enc.as_bytes());
    }

    #[test]
    fn directory_lookup() {
        let peter = Credentials::from_seed("peter", "p");
        let amy = Credentials::from_seed("amy", "a");
        let dir = Directory::from_credentials([&peter, &amy]);
        assert_eq!(dir.len(), 2);
        assert_eq!(dir.get("peter").unwrap().sign, peter.sign.public);
        assert!(matches!(dir.get("mallory"), Err(WfError::UnknownIdentity(_))));
    }

    #[test]
    fn reverse_signer_lookup() {
        let peter = Credentials::from_seed("peter", "p");
        let dir = Directory::from_credentials([&peter]);
        assert_eq!(dir.name_of_signer(&peter.sign.public), Some("peter"));
        let other = Credentials::from_seed("x", "y");
        assert_eq!(dir.name_of_signer(&other.sign.public), None);
    }

    #[test]
    fn groups_expand_to_members() {
        let a = Credentials::from_seed("alice", "a");
        let b = Credentials::from_seed("bob", "b");
        let mut dir = Directory::from_credentials([&a, &b]);
        dir.register_group("finance", &["alice", "bob"]).unwrap();
        let ids = dir.expand("finance").unwrap();
        assert_eq!(ids.len(), 2);
        assert!(dir.covers("finance", "alice"));
        assert!(dir.covers("finance", "bob"));
        assert!(!dir.covers("finance", "carol"));
        assert!(dir.covers("alice", "alice"));
        // an individual expands to itself
        assert_eq!(dir.expand("alice").unwrap().len(), 1);
    }

    #[test]
    fn group_with_unknown_member_rejected() {
        let a = Credentials::from_seed("alice", "a");
        let mut dir = Directory::from_credentials([&a]);
        assert!(dir.register_group("g", &["alice", "ghost"]).is_err());
    }

    #[test]
    fn group_name_cannot_shadow_identity() {
        let a = Credentials::from_seed("alice", "a");
        let mut dir = Directory::from_credentials([&a]);
        assert!(dir.register_group("alice", &[]).is_err());
    }

    #[test]
    fn register_replaces() {
        let mut dir = Directory::new();
        let v1 = Credentials::from_seed("p", "1");
        let v2 = Credentials::from_seed("p", "2");
        dir.register(v1.identity());
        dir.register(v2.identity());
        assert_eq!(dir.len(), 1);
        assert_eq!(dir.get("p").unwrap().sign, v2.sign.public);
    }
}
