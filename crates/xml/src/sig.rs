//! Detached element signatures in the XML-DSig style.
//!
//! A `<Signature>` element binds a signer's Ed25519 public key to the
//! canonical bytes of whatever content the caller designates:
//!
//! ```xml
//! <Signature signer="d75a98…" covers="CER(A1),CER(A2)">e55643…</Signature>
//! ```
//!
//! `covers` labels the covered content; cryptographic verification is always
//! against the canonical bytes recomputed by the verifier, exactly as XML
//! Signature verifies against re-canonicalized references. Because the label
//! itself sits outside the signed bytes, the document-level rule must pin it
//! to the content it recomputed — otherwise the attribute is malleable in
//! stored documents. That rule, and the cascade construction of the paper
//! (each signature signs the predecessor signatures), live in
//! `dra4wfms-core`'s `covers` module, this module's one caller.

use crate::node::Element;
use dra_crypto::ed25519::{Keypair, PublicKey, Signature};
use dra_crypto::hex;

/// Element name of signature blocks.
pub const SIGNATURE: &str = "Signature";

/// A parsed signature block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureBlock {
    /// The signer's public key.
    pub signer: PublicKey,
    /// The detached signature value.
    pub signature: Signature,
    /// The label naming the covered content (outside the signed bytes).
    pub covers: String,
}

/// A block that is not a well-formed `<Signature>` element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SigError {
    /// Not a `<Signature>` element or fields missing/malformed.
    Malformed(String),
}

impl std::fmt::Display for SigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let SigError::Malformed(m) = self;
        write!(f, "malformed Signature: {m}")
    }
}

impl std::error::Error for SigError {}

/// Sign `bytes` with `keypair`, producing a `<Signature>` element.
pub fn sign_detached(keypair: &Keypair, bytes: &[u8], covers: &str) -> Element {
    let sig = keypair.sign(bytes);
    Element::new(SIGNATURE)
        .attr("signer", hex::encode(&keypair.public.0))
        .attr("covers", covers)
        .text(hex::encode(&sig.0))
}

/// Parse a `<Signature>` element into a [`SignatureBlock`].
pub fn parse_signature(el: &Element) -> Result<SignatureBlock, SigError> {
    if el.name != SIGNATURE {
        return Err(SigError::Malformed(format!("expected <{SIGNATURE}>, found <{}>", el.name)));
    }
    let signer_hex =
        el.get_attr("signer").ok_or_else(|| SigError::Malformed("missing signer".into()))?;
    let signer_bytes = hex::decode_array::<32>(signer_hex)
        .ok_or_else(|| SigError::Malformed("bad signer hex".into()))?;
    let sig_bytes = hex::decode(&el.text_content())
        .ok_or_else(|| SigError::Malformed("bad signature hex".into()))?;
    let signature = Signature::from_bytes(&sig_bytes)
        .ok_or_else(|| SigError::Malformed("bad length".into()))?;
    Ok(SignatureBlock {
        signer: PublicKey(signer_bytes),
        signature,
        covers: el.get_attr("covers").unwrap_or_default().to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::writer::to_string;

    fn kp(seed: u8) -> Keypair {
        Keypair::from_seed([seed; 32])
    }

    #[test]
    fn survives_wire_roundtrip() {
        let k = kp(3);
        let el = sign_detached(&k, b"payload", "CER(A1)");
        let block = parse_signature(&parse(&to_string(&el)).unwrap()).unwrap();
        assert_eq!(block, parse_signature(&el).unwrap());
        assert_eq!((block.signer, block.covers.as_str()), (k.public, "CER(A1)"));
        assert!(block.signer.verify(b"payload", &block.signature));
    }

    #[test]
    fn malformed_rejected() {
        let malformed = |el: &Element| matches!(parse_signature(el), Err(SigError::Malformed(_)));
        assert!(malformed(&Element::new("NotSig")));
        assert!(malformed(&Element::new(SIGNATURE).text("00")));
        assert!(malformed(&Element::new(SIGNATURE).attr("signer", "0".repeat(64)).text("beef")));
    }
}
