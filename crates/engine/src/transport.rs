//! An SSL-like secure channel between a participant and an engine.
//!
//! The paper concedes that eavesdropping and in-flight alteration "can
//! easily be solved by applying common methods used to secure electronic
//! transactions with secure sockets, such as the SSL protocol — \[but\] such
//! methods still cannot guarantee the nonrepudiation requirement" (§1).
//!
//! This module makes that argument concrete: a channel established with an
//! ephemeral X25519 handshake and symmetric authenticated encryption
//! protects messages in transit, yet the engine stores the decrypted
//! plaintext — so the at-rest tampering of [`crate::engine::Superuser`] is
//! untouched by it.

use dra_crypto::sealed::{secretbox_open, secretbox_seal, SealError};
use dra_crypto::sha2::Sha256;
use dra_crypto::x25519::{X25519PublicKey, X25519Secret};

/// One endpoint of an established secure channel.
pub struct SecureChannel {
    key: [u8; 32],
}

/// Perform an (unauthenticated, SSL-handshake-like) key agreement and
/// return the two channel endpoints. In a real deployment certificates
/// authenticate the server; here both sides are returned directly.
pub fn handshake() -> (SecureChannel, SecureChannel) {
    let client = X25519Secret::generate();
    let server = X25519Secret::generate();
    let client_side = SecureChannel::derive(&client, &server.public_key());
    let server_side = SecureChannel::derive(&server, &client.public_key());
    (client_side, server_side)
}

impl SecureChannel {
    /// Derive a channel key from our secret and the peer's public key.
    pub fn derive(me: &X25519Secret, peer: &X25519PublicKey) -> SecureChannel {
        let shared = me.diffie_hellman(peer);
        let mut h = Sha256::new();
        h.update(b"dra4wfms.ssl-like.v1");
        h.update(&shared);
        SecureChannel { key: h.finalize() }
    }

    /// Encrypt + authenticate a message for the peer.
    pub fn send(&self, plaintext: &[u8]) -> Vec<u8> {
        secretbox_seal(&self.key, plaintext)
    }

    /// Decrypt + verify a message from the peer.
    pub fn recv(&self, wire: &[u8]) -> Result<Vec<u8>, SealError> {
        secretbox_open(&self.key, wire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_roundtrip() {
        let (client, server) = handshake();
        let wire = client.send(b"execute activity A1: amount=100");
        assert_eq!(server.recv(&wire).unwrap(), b"execute activity A1: amount=100");
        // and the reverse direction
        let wire = server.send(b"ack");
        assert_eq!(client.recv(&wire).unwrap(), b"ack");
    }

    #[test]
    fn in_flight_tampering_detected() {
        let (client, server) = handshake();
        let mut wire = client.send(b"amount=100");
        let mid = wire.len() / 2;
        wire[mid] ^= 0x01;
        assert!(server.recv(&wire).is_err(), "SSL-like channel catches alteration in flight");
    }

    #[test]
    fn eavesdropper_without_key_fails() {
        let (client, _server) = handshake();
        let (_, eve) = handshake(); // unrelated channel
        let wire = client.send(b"secret");
        assert!(eve.recv(&wire).is_err());
    }

    /// The paper's point: transport security does NOT protect data at rest.
    #[test]
    fn transport_security_does_not_stop_superuser() {
        use crate::engine::WorkflowEngine;
        use dra4wfms_core::model::WorkflowDefinition;

        let def = WorkflowDefinition::builder("w", "designer")
            .simple_activity("a", "alice", &["amount"])
            .flow_end("a")
            .build()
            .unwrap();
        let engine = WorkflowEngine::new("e");
        let pid = engine.start_process(&def).unwrap();

        // alice submits over a protected channel…
        let (client, server) = handshake();
        let wire = client.send(b"100");
        let received = server.recv(&wire).unwrap();
        let amount = String::from_utf8(received).unwrap();
        engine.execute_activity(pid, "a", "alice", &[("amount".into(), amount)]).unwrap();

        // …but the engine stores plaintext, and the superuser rewrites it.
        engine.superuser().alter_result(pid, "a", "amount", "999999").unwrap();
        assert_eq!(engine.get_instance(pid).unwrap().field("a", "amount"), Some("999999"));
    }
}
