//! Building and reading `<Result>` elements: per-field element-wise
//! encryption according to the security policy.
//!
//! A result carries one entry per response field. Public fields are stored
//! as plaintext `<Field>` elements; restricted fields are wrapped in
//! `<EncryptedData>` addressed to the resolved audience plus the producing
//! participant. Conditional audiences are resolved at encryption time by
//! whoever holds enough keys to evaluate the predicate — the executing AEA
//! in the basic model, the TFC server in the advanced model.
//!
//! Whoever builds the result picks each reader's wrap ([`Recipient`]): its
//! own copy is keyed from its own secret, the author's copy — when the TFC
//! builds — from the secret TFC and author share, and every other reader's
//! is sealed to its public key: a table walk to seal, a ladder to open.

use crate::error::{WfError, WfResult};
use crate::identity::{ActorKeys, Identity};
use crate::model::Condition;
use crate::policy::{Readers, SecurityPolicy};
use dra_xml::enc::{decrypt_element, is_encrypted, recipients_of, ReaderKeys, Recipient};
use dra_xml::{encrypt_element, Element};

/// Anything that can provide plaintext field values for condition
/// evaluation: an AEA reading the document with its own keys, the TFC
/// server, or a test harness.
pub trait FieldReader {
    /// The latest value of `activity.field`.
    ///
    /// * `Ok(Some(v))` — readable, value `v`
    /// * `Ok(None)` — the activity has not produced the field yet
    /// * `Err(FieldNotReadable)` — present but encrypted to others
    fn read_field(&self, activity: &str, field: &str) -> WfResult<Option<String>>;
}

/// Evaluate a condition through a [`FieldReader`].
pub fn eval_condition(c: &Condition, reader: &dyn FieldReader) -> WfResult<bool> {
    match reader.read_field(&c.activity, &c.field)? {
        Some(v) => Ok(c.matches(&v)),
        None => Err(WfError::Flow(format!(
            "condition references '{}.{}' which has not been produced",
            c.activity, c.field
        ))),
    }
}

/// A fully resolved audience.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ResolvedReaders {
    /// Plaintext.
    Everyone,
    /// Named recipients.
    Names(Vec<String>),
}

/// Resolve an audience rule, evaluating conditional rules via `reader`.
pub fn resolve_readers(readers: &Readers, reader: &dyn FieldReader) -> WfResult<ResolvedReaders> {
    match readers {
        Readers::Everyone => Ok(ResolvedReaders::Everyone),
        Readers::Only(names) => Ok(ResolvedReaders::Names(names.clone())),
        Readers::Conditional { condition, then_readers, else_readers } => {
            if eval_condition(condition, reader)? {
                Ok(ResolvedReaders::Names(then_readers.clone()))
            } else {
                Ok(ResolvedReaders::Names(else_readers.clone()))
            }
        }
    }
}

/// Build a `<Result>` element for `activity`, encrypting each response field
/// per `policy`, as the holder of `keys` (the author's AEA, or the TFC).
/// `author` is always added to restricted audiences so a participant can
/// re-read what they produced.
pub fn build_result_element(
    activity: &str,
    responses: &[(String, String)],
    policy: &SecurityPolicy,
    keys: &ActorKeys<'_>,
    author: &str,
    reader: &dyn FieldReader,
) -> WfResult<Element> {
    let mut result = Element::new("Result");
    for (name, value) in responses {
        let field_el = Element::new("Field").attr("name", name.clone()).text(value.clone());
        match resolve_readers(policy.readers_for(activity, name), reader)? {
            ResolvedReaders::Everyone => result.push_child(field_el),
            ResolvedReaders::Names(mut names) => {
                if !names.iter().any(|n| n == author) {
                    names.push(author.to_string());
                }
                names.sort();
                names.dedup();
                // group names expand to their members' keys
                let mut recipients: Vec<Recipient> = Vec::new();
                for n in &names {
                    for id in keys.directory.expand(n)? {
                        if !recipients.iter().any(|r| r.id == id.name) {
                            recipients.push(recipient(keys, author, id));
                        }
                    }
                }
                let mut enc = encrypt_element(&field_el, &recipients);
                enc.set_attr("field", name.clone());
                result.push_child(enc);
            }
        }
    }
    Ok(result)
}

/// How `id`'s copy is wrapped when the holder of `keys` builds a result of
/// `author`'s: from a secret both already hold where there is one (its own
/// copy; the author's, when the TFC builds), to its public key otherwise.
/// Other readers get a sealed box (a table walk; a ladder to open): a
/// static secret with each would let one leaked builder key open all it sealed.
fn recipient(keys: &ActorKeys<'_>, author: &str, id: &Identity) -> Recipient {
    let builder = &keys.creds.name;
    if id.name == *builder {
        Recipient::keyed(&id.name, builder, *keys.creds.enc.as_bytes())
    } else if id.name == author {
        Recipient::keyed(&id.name, builder, keys.shared_with_key(&id.enc))
    } else {
        Recipient::new(&id.name, id.enc)
    }
}

/// Build a `<Result>` element with every field in plaintext — used for the
/// intermediate (TFC-sealed) form, whose confidentiality comes from the
/// outer sealed box rather than per-field encryption.
pub fn build_plain_result_element(responses: &[(String, String)]) -> Element {
    let mut result = Element::new("Result");
    for (name, value) in responses {
        result.push_child(Element::new("Field").attr("name", name.clone()).text(value.clone()));
    }
    result
}

/// Extract all plaintext fields from a `<Result>` (inverse of
/// [`build_plain_result_element`]); encrypted entries are skipped.
pub fn plain_fields(result: &Element) -> Vec<(String, String)> {
    result
        .find_children("Field")
        .map(|f| (f.get_attr("name").unwrap_or_default().to_string(), f.text_content()))
        .collect()
}

/// Read one field from a `<Result>` element as `reader_name`, holding `keys`
/// (its [`Credentials`](crate::identity::Credentials), or its
/// [`ActorKeys`] to open a copy the TFC keyed for it as author).
///
/// Returns `Ok(None)` if the field does not exist in this result.
pub fn read_field_from_result(
    result: &Element,
    activity: &str,
    field: &str,
    reader_name: &str,
    keys: Option<&dyn ReaderKeys>,
) -> WfResult<Option<String>> {
    // plaintext?
    for f in result.find_children("Field") {
        if f.get_attr("name") == Some(field) {
            return Ok(Some(f.text_content()));
        }
    }
    // encrypted?
    for e in result.child_elements() {
        if is_encrypted(e) && e.get_attr("field") == Some(field) {
            let not_readable = || WfError::FieldNotReadable {
                activity: activity.to_string(),
                field: field.to_string(),
                reader: reader_name.to_string(),
            };
            if !recipients_of(e).contains(&reader_name) {
                return Err(not_readable());
            }
            let keys = keys.ok_or_else(not_readable)?;
            let inner = decrypt_element(e, reader_name, keys)
                .map_err(|err| WfError::Crypto(err.to_string()))?;
            return Ok(Some(inner.text_content()));
        }
    }
    Ok(None)
}

/// List the field names present in a result (plaintext and encrypted).
pub fn field_names(result: &Element) -> Vec<String> {
    let mut out = Vec::new();
    for e in result.child_elements() {
        if e.name == "Field" {
            if let Some(n) = e.get_attr("name") {
                out.push(n.to_string());
            }
        } else if is_encrypted(e) {
            if let Some(n) = e.get_attr("field") {
                out.push(n.to_string());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::identity::{Credentials, Directory, PeerSecrets};
    use crate::policy::SecurityPolicy;
    use std::collections::HashMap;

    /// Map-backed reader for tests.
    pub struct MapReader(pub HashMap<(String, String), String>);

    impl FieldReader for MapReader {
        fn read_field(&self, activity: &str, field: &str) -> WfResult<Option<String>> {
            Ok(self.0.get(&(activity.to_string(), field.to_string())).cloned())
        }
    }

    fn setup() -> (Directory, Credentials, Credentials, Credentials) {
        let peter = Credentials::from_seed("peter", "p");
        let amy = Credentials::from_seed("amy", "a");
        let tony = Credentials::from_seed("tony", "t");
        let dir = Directory::from_credentials([&peter, &amy, &tony]);
        (dir, peter, amy, tony)
    }

    /// Build as `author`'s own AEA does in the basic model.
    fn build_as(
        author: &Credentials,
        dir: &Directory,
        activity: &str,
        responses: &[(String, String)],
        policy: &SecurityPolicy,
        reader: &dyn FieldReader,
    ) -> WfResult<Element> {
        let peers = PeerSecrets::default();
        let keys = ActorKeys { creds: author, directory: dir, peers: &peers };
        build_result_element(activity, responses, policy, &keys, &author.name, reader)
    }

    fn empty_reader() -> MapReader {
        MapReader(HashMap::new())
    }

    #[test]
    fn public_fields_are_plaintext() {
        let (dir, peter, ..) = setup();
        let result = build_as(
            &peter,
            &dir,
            "A",
            &[("note".into(), "hello".into())],
            &SecurityPolicy::public(),
            &empty_reader(),
        )
        .unwrap();
        assert_eq!(
            read_field_from_result(&result, "A", "note", "anyone", None).unwrap(),
            Some("hello".into())
        );
    }

    #[test]
    fn restricted_field_readable_by_audience_and_author() {
        let (dir, peter, amy, tony) = setup();
        let policy = SecurityPolicy::builder().restrict("A", "x", &["amy"]).build();
        let result =
            build_as(&peter, &dir, "A", &[("x".into(), "42".into())], &policy, &empty_reader())
                .unwrap();
        // amy (audience) reads
        assert_eq!(
            read_field_from_result(&result, "A", "x", "amy", Some(&amy)).unwrap(),
            Some("42".into())
        );
        // peter (author) reads
        assert_eq!(
            read_field_from_result(&result, "A", "x", "peter", Some(&peter)).unwrap(),
            Some("42".into())
        );
        // tony cannot
        assert!(matches!(
            read_field_from_result(&result, "A", "x", "tony", Some(&tony)),
            Err(WfError::FieldNotReadable { .. })
        ));
    }

    #[test]
    fn missing_field_is_none() {
        let (dir, peter, ..) = setup();
        let result =
            build_as(&peter, &dir, "A", &[], &SecurityPolicy::public(), &empty_reader()).unwrap();
        assert_eq!(read_field_from_result(&result, "A", "ghost", "x", None).unwrap(), None);
    }

    #[test]
    fn conditional_readers_then_branch() {
        let (dir, peter, amy, tony) = setup();
        let policy = SecurityPolicy::builder()
            .restrict_conditional(
                "A2",
                "Y",
                Condition::field_equals("A1", "X", "true"),
                &["amy"],
                &["tony"],
            )
            .build();
        let mut vals = HashMap::new();
        vals.insert(("A1".into(), "X".into()), "true".into());
        let result = build_as(
            &peter,
            &dir,
            "A2",
            &[("Y".into(), "secret".into())],
            &policy,
            &MapReader(vals),
        )
        .unwrap();
        assert_eq!(
            read_field_from_result(&result, "A2", "Y", "amy", Some(&amy)).unwrap(),
            Some("secret".into())
        );
        assert!(read_field_from_result(&result, "A2", "Y", "tony", Some(&tony)).is_err());
    }

    #[test]
    fn conditional_readers_else_branch() {
        let (dir, peter, amy, tony) = setup();
        let policy = SecurityPolicy::builder()
            .restrict_conditional(
                "A2",
                "Y",
                Condition::field_equals("A1", "X", "true"),
                &["amy"],
                &["tony"],
            )
            .build();
        let mut vals = HashMap::new();
        vals.insert(("A1".into(), "X".into()), "false".into());
        let result = build_as(
            &peter,
            &dir,
            "A2",
            &[("Y".into(), "secret".into())],
            &policy,
            &MapReader(vals),
        )
        .unwrap();
        assert!(read_field_from_result(&result, "A2", "Y", "amy", Some(&amy)).is_err());
        assert_eq!(
            read_field_from_result(&result, "A2", "Y", "tony", Some(&tony)).unwrap(),
            Some("secret".into())
        );
    }

    #[test]
    fn conditional_unreadable_condition_propagates() {
        // Tony's AEA cannot read A1.X, so it cannot resolve the audience —
        // the Fig. 4 failure, surfaced as an error in the basic model.
        struct Unreadable;
        impl FieldReader for Unreadable {
            fn read_field(&self, activity: &str, field: &str) -> WfResult<Option<String>> {
                Err(WfError::FieldNotReadable {
                    activity: activity.into(),
                    field: field.into(),
                    reader: "tony".into(),
                })
            }
        }
        let (dir, _, _, tony) = setup();
        let policy = SecurityPolicy::builder()
            .restrict_conditional(
                "A2",
                "Y",
                Condition::field_equals("A1", "X", "true"),
                &["amy"],
                &["mary"],
            )
            .build();
        let err = build_as(&tony, &dir, "A2", &[("Y".into(), "v".into())], &policy, &Unreadable)
            .unwrap_err();
        assert!(matches!(err, WfError::FieldNotReadable { .. }));
    }

    #[test]
    fn condition_on_unproduced_field_errors() {
        let c = Condition::field_equals("A9", "nope", "1");
        let err = eval_condition(&c, &empty_reader()).unwrap_err();
        assert!(matches!(err, WfError::Flow(_)));
    }

    #[test]
    fn unknown_recipient_errors() {
        let (dir, peter, ..) = setup();
        let policy = SecurityPolicy::builder().restrict("A", "x", &["ghost"]).build();
        let err =
            build_as(&peter, &dir, "A", &[("x".into(), "1".into())], &policy, &empty_reader())
                .unwrap_err();
        assert!(matches!(err, WfError::UnknownIdentity(g) if g == "ghost"));
    }

    #[test]
    fn group_audience_expands_to_members() {
        let peter = Credentials::from_seed("peter", "p");
        let amy = Credentials::from_seed("amy", "a");
        let tony = Credentials::from_seed("tony", "t");
        let outsider = Credentials::from_seed("eve", "e");
        let mut dir = Directory::from_credentials([&peter, &amy, &tony, &outsider]);
        dir.register_group("reviewers", &["amy", "tony"]).unwrap();
        let policy = SecurityPolicy::builder().restrict("A", "x", &["reviewers"]).build();
        let result =
            build_as(&peter, &dir, "A", &[("x".into(), "42".into())], &policy, &empty_reader())
                .unwrap();
        for (who, creds) in [("amy", &amy), ("tony", &tony)] {
            assert_eq!(
                read_field_from_result(&result, "A", "x", who, Some(creds)).unwrap(),
                Some("42".into()),
                "{who} is a group member"
            );
        }
        assert!(read_field_from_result(&result, "A", "x", "eve", Some(&outsider)).is_err());
    }

    #[test]
    fn plain_result_roundtrip() {
        let fields = vec![("a".to_string(), "1".to_string()), ("b".to_string(), "2".to_string())];
        let el = build_plain_result_element(&fields);
        assert_eq!(plain_fields(&el), fields);
        assert_eq!(field_names(&el), vec!["a", "b"]);
    }

    #[test]
    fn field_names_include_encrypted() {
        let (dir, peter, ..) = setup();
        let policy = SecurityPolicy::builder().restrict("A", "x", &["amy"]).build();
        let result = build_as(
            &peter,
            &dir,
            "A",
            &[("x".into(), "1".into()), ("pub".into(), "2".into())],
            &policy,
            &empty_reader(),
        )
        .unwrap();
        let mut names = field_names(&result);
        names.sort();
        assert_eq!(names, vec!["pub", "x"]);
    }
}
