//! The `dra` command-line interface: key management, process initiation,
//! activity execution, verification, monitoring and nonrepudiation queries
//! over files on disk.
//!
//! Everything is plain files so that cross-enterprise parties can exchange
//! documents over any channel (the whole point of document routing):
//!
//! ```text
//! dra keygen alice --keys keys/
//! dra init --workflow order.dsl --policy order.policy --designer designer \
//!          --keys keys/ --out order-0.xml
//! dra execute --doc order-0.xml --activity submit --as alice \
//!          --respond amount=120 --keys keys/ --out order-1.xml
//! dra verify --doc order-1.xml --keys keys/
//! dra status --doc order-1.xml
//! dra scope --doc order-1.xml --cer submit#0
//! dra dot --workflow order.dsl
//! ```
//!
//! The logic lives in library functions (tested in `tests/cli.rs`); the
//! binary `src/bin/dra.rs` is a thin wrapper.

use crate::core::dsl::parse_workflow;
use crate::core::prelude::*;
use dra_crypto::hex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// CLI failure: message for the user.
pub type CliError = String;

fn err(msg: impl Into<String>) -> CliError {
    msg.into()
}

/// Parse `--flag value` style options plus positional arguments.
struct Opts {
    positional: Vec<String>,
    flags: BTreeMap<String, Vec<String>>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, CliError> {
        let mut positional = Vec::new();
        let mut flags: BTreeMap<String, Vec<String>> = BTreeMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = it.next().ok_or_else(|| err(format!("--{name} requires a value")))?;
                flags.entry(name.to_string()).or_default().push(value.clone());
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Opts { positional, flags })
    }

    fn one(&self, name: &str) -> Result<&str, CliError> {
        match self.flags.get(name).map(Vec::as_slice) {
            Some([v]) => Ok(v),
            Some(_) => Err(err(format!("--{name} given more than once"))),
            None => Err(err(format!("missing required --{name}"))),
        }
    }

    fn opt(&self, name: &str) -> Option<&str> {
        self.flags.get(name).and_then(|v| v.first()).map(String::as_str)
    }

    fn many(&self, name: &str) -> Vec<&str> {
        self.flags.get(name).map(|v| v.iter().map(String::as_str).collect()).unwrap_or_default()
    }
}

// -- key store ---------------------------------------------------------------

fn secret_path(keys: &Path, name: &str) -> PathBuf {
    keys.join(format!("{name}.secret"))
}

fn public_path(keys: &Path, name: &str) -> PathBuf {
    keys.join(format!("{name}.public"))
}

/// Write a fresh keypair for `name` into the key directory.
pub fn keygen(keys: &Path, name: &str) -> Result<(), CliError> {
    std::fs::create_dir_all(keys).map_err(|e| err(format!("creating {keys:?}: {e}")))?;
    let creds = Credentials::generate(name);
    let id = creds.identity();
    let secret = format!(
        "sign-seed {}\nenc-secret {}\n",
        hex::encode(creds.sign.secret.seed()),
        hex::encode(creds.enc.as_bytes())
    );
    let public = format!("sign {}\nenc {}\n", hex::encode(&id.sign.0), hex::encode(&id.enc.0));
    std::fs::write(secret_path(keys, name), secret).map_err(|e| err(e.to_string()))?;
    std::fs::write(public_path(keys, name), public).map_err(|e| err(e.to_string()))?;
    Ok(())
}

/// Load one actor's credentials from the key directory.
pub fn load_credentials(keys: &Path, name: &str) -> Result<Credentials, CliError> {
    let text = std::fs::read_to_string(secret_path(keys, name))
        .map_err(|e| err(format!("no secret key for '{name}': {e}")))?;
    let mut sign_seed = None;
    let mut enc_secret = None;
    for line in text.lines() {
        if let Some(v) = line.strip_prefix("sign-seed ") {
            sign_seed = hex::decode_array::<32>(v.trim());
        } else if let Some(v) = line.strip_prefix("enc-secret ") {
            enc_secret = hex::decode_array::<32>(v.trim());
        }
    }
    let sign_seed = sign_seed.ok_or_else(|| err(format!("bad secret file for '{name}'")))?;
    let enc_secret = enc_secret.ok_or_else(|| err(format!("bad secret file for '{name}'")))?;
    Ok(Credentials {
        name: name.to_string(),
        sign: dra_crypto::ed25519::Keypair::from_seed(sign_seed),
        enc: dra_crypto::x25519::X25519Secret::from_bytes(enc_secret),
    })
}

/// Build the directory from every `.public` file in the key directory.
pub fn load_directory(keys: &Path) -> Result<Directory, CliError> {
    let mut dir = Directory::new();
    let entries = std::fs::read_dir(keys).map_err(|e| err(format!("reading {keys:?}: {e}")))?;
    for entry in entries {
        let entry = entry.map_err(|e| err(e.to_string()))?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("public") {
            continue;
        }
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| err("bad key file name"))?
            .to_string();
        let text = std::fs::read_to_string(&path).map_err(|e| err(e.to_string()))?;
        let mut sign = None;
        let mut enc = None;
        for line in text.lines() {
            if let Some(v) = line.strip_prefix("sign ") {
                sign = hex::decode_array::<32>(v.trim());
            } else if let Some(v) = line.strip_prefix("enc ") {
                enc = hex::decode_array::<32>(v.trim());
            }
        }
        let sign = sign.ok_or_else(|| err(format!("bad public file {path:?}")))?;
        let enc = enc.ok_or_else(|| err(format!("bad public file {path:?}")))?;
        dir.register(Identity {
            name,
            sign: dra_crypto::ed25519::PublicKey(sign),
            enc: dra_crypto::x25519::X25519PublicKey(enc),
        });
    }
    if dir.is_empty() {
        return Err(err(format!("no .public key files found in {keys:?}")));
    }
    Ok(dir)
}

// -- policy file -------------------------------------------------------------

/// Parse a policy file: one `restrict ACTIVITY.FIELD to a, b, c` per line
/// (blank lines and `#` comments ignored; unruled fields are public).
pub fn parse_policy_file(text: &str) -> Result<SecurityPolicy, CliError> {
    let mut builder = SecurityPolicy::builder();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let rest = line
            .strip_prefix("restrict ")
            .ok_or_else(|| err(format!("policy line {}: expected 'restrict …'", i + 1)))?;
        let (field_ref, readers) = rest
            .split_once(" to ")
            .ok_or_else(|| err(format!("policy line {}: expected '… to a, b'", i + 1)))?;
        let (activity, field) = field_ref
            .trim()
            .split_once('.')
            .ok_or_else(|| err(format!("policy line {}: expected ACTIVITY.FIELD", i + 1)))?;
        let names: Vec<&str> =
            readers.split(',').map(str::trim).filter(|s| !s.is_empty()).collect();
        if names.is_empty() {
            return Err(err(format!("policy line {}: empty reader list", i + 1)));
        }
        builder = builder.restrict(activity.trim(), field.trim(), &names);
    }
    Ok(builder.build())
}

// -- commands ----------------------------------------------------------------

fn cmd_keygen(opts: &Opts) -> Result<String, CliError> {
    let name =
        opts.positional.first().ok_or_else(|| err("usage: dra keygen <name> --keys <dir>"))?;
    let keys = PathBuf::from(opts.opt("keys").unwrap_or("keys"));
    keygen(&keys, name)?;
    Ok(format!("generated keys for '{name}' in {}\n", keys.display()))
}

fn cmd_init(opts: &Opts) -> Result<String, CliError> {
    let wf_path = opts.one("workflow")?;
    let designer_name = opts.one("designer")?;
    let out = opts.one("out")?;
    let keys = PathBuf::from(opts.opt("keys").unwrap_or("keys"));

    let dsl = std::fs::read_to_string(wf_path).map_err(|e| err(format!("{wf_path}: {e}")))?;
    let def = parse_workflow(&dsl).map_err(|e| err(e.to_string()))?;
    let policy = match opts.opt("policy") {
        Some(p) => {
            let text = std::fs::read_to_string(p).map_err(|e| err(format!("{p}: {e}")))?;
            parse_policy_file(&text)?
        }
        None => SecurityPolicy::public(),
    };
    let designer = load_credentials(&keys, designer_name)?;
    let doc = DraDocument::new_initial(&def, &policy, &designer).map_err(|e| err(e.to_string()))?;
    std::fs::write(out, doc.to_xml_string()).map_err(|e| err(e.to_string()))?;
    Ok(format!(
        "initial document for process {} written to {out} ({} bytes)\n",
        doc.process_id().map_err(|e| err(e.to_string()))?,
        doc.size_bytes()
    ))
}

fn cmd_execute(opts: &Opts) -> Result<String, CliError> {
    let activity = opts.one("activity")?;
    let who = opts.one("as")?;
    let out = opts.one("out")?;
    let keys = PathBuf::from(opts.opt("keys").unwrap_or("keys"));
    let docs = opts.many("doc");
    if docs.is_empty() {
        return Err(err("missing required --doc (repeat for AND-join branches)"));
    }

    let creds = load_credentials(&keys, who)?;
    let directory = load_directory(&keys)?;
    let aea = Aea::new(creds, directory);

    let xmls: Vec<String> = docs
        .iter()
        .map(|p| std::fs::read_to_string(p).map_err(|e| err(format!("{p}: {e}"))))
        .collect::<Result<_, _>>()?;
    let refs: Vec<&str> = xmls.iter().map(String::as_str).collect();
    let received = if refs.len() == 1 {
        aea.receive(refs[0], activity)
    } else {
        aea.receive_merged(&refs, activity)
    }
    .map_err(|e| err(e.to_string()))?;

    let mut output = String::new();
    writeln!(
        output,
        "opened {activity}#{} ({} signatures verified)",
        received.iter, received.report.signatures_verified
    )
    .ok();
    for (f, v) in &received.visible {
        writeln!(output, "  visible: {}.{} = {v}", f.activity, f.field).ok();
    }
    for f in &received.hidden {
        writeln!(output, "  hidden:  {}.{}", f.activity, f.field).ok();
    }

    let responses: Vec<(String, String)> = opts
        .many("respond")
        .iter()
        .map(|r| {
            r.split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .ok_or_else(|| err(format!("--respond must be field=value, got '{r}'")))
        })
        .collect::<Result<_, _>>()?;

    if received.definition.def.tfc.is_some() {
        // advanced model: seal the result to the TFC and write the
        // intermediate document, to be processed with `dra tfc`
        let inter = aea.complete_via_tfc(&received, &responses).map_err(|e| err(e.to_string()))?;
        std::fs::write(out, inter.document.to_xml_string()).map_err(|e| err(e.to_string()))?;
        writeln!(
            output,
            "intermediate document (sealed to the TFC) written to {out} ({} bytes);              process it with `dra tfc`",
            inter.document.size_bytes()
        )
        .ok();
        return Ok(output);
    }

    let done = aea.complete(&received, &responses).map_err(|e| err(e.to_string()))?;
    std::fs::write(out, done.document.to_xml_string()).map_err(|e| err(e.to_string()))?;
    if done.route.is_final() {
        writeln!(output, "process complete; final document written to {out}").ok();
    } else {
        writeln!(
            output,
            "routed to {:?}; document written to {out} ({} bytes)",
            done.route.targets,
            done.document.size_bytes()
        )
        .ok();
    }
    Ok(output)
}

fn cmd_tfc(opts: &Opts) -> Result<String, CliError> {
    let doc_path = opts.one("doc")?;
    let who = opts.one("as")?;
    let out = opts.one("out")?;
    let keys = PathBuf::from(opts.opt("keys").unwrap_or("keys"));

    let creds = load_credentials(&keys, who)?;
    let directory = load_directory(&keys)?;
    let server = TfcServer::new(creds, directory);
    let xml = std::fs::read_to_string(doc_path).map_err(|e| err(format!("{doc_path}: {e}")))?;
    let processed = server.process(&xml).map_err(|e| err(e.to_string()))?;
    std::fs::write(out, processed.document.to_xml_string()).map_err(|e| err(e.to_string()))?;
    let mut output = format!(
        "TFC finalized {} at t={}ms; document written to {out} ({} bytes)\n",
        processed.key,
        processed.timestamp,
        processed.document.size_bytes()
    );
    if processed.route.is_final() {
        output.push_str("process complete\n");
    } else {
        writeln!(output, "route to {:?}", processed.route.targets).ok();
    }
    Ok(output)
}

fn cmd_verify(opts: &Opts) -> Result<String, CliError> {
    let doc_path = opts.one("doc")?;
    let keys = PathBuf::from(opts.opt("keys").unwrap_or("keys"));
    let xml = std::fs::read_to_string(doc_path).map_err(|e| err(format!("{doc_path}: {e}")))?;
    let doc = DraDocument::parse(&xml).map_err(|e| err(e.to_string()))?;
    let directory = load_directory(&keys)?;
    match Verifier::new(&directory).run(&doc).map(|o| o.report) {
        Ok(report) => Ok(format!(
            "OK: process {}, {} CERs, {} signatures verified{}\n",
            report.process_id,
            report.cers.len(),
            report.signatures_verified,
            if report.ends_with_intermediate { " (awaiting TFC)" } else { "" }
        )),
        Err(e) => Err(err(format!("VERIFICATION FAILED: {e}"))),
    }
}

fn cmd_status(opts: &Opts) -> Result<String, CliError> {
    let doc_path = opts.one("doc")?;
    let xml = std::fs::read_to_string(doc_path).map_err(|e| err(format!("{doc_path}: {e}")))?;
    let doc = DraDocument::parse(&xml).map_err(|e| err(e.to_string()))?;
    let status =
        crate::core::monitor::ProcessStatus::from_document(&doc).map_err(|e| err(e.to_string()))?;
    Ok(status.audit_trail())
}

fn cmd_scope(opts: &Opts) -> Result<String, CliError> {
    let doc_path = opts.one("doc")?;
    let cer = opts.one("cer")?;
    let xml = std::fs::read_to_string(doc_path).map_err(|e| err(format!("{doc_path}: {e}")))?;
    let doc = DraDocument::parse(&xml).map_err(|e| err(e.to_string()))?;
    let key = CerKey::parse(cer).ok_or_else(|| err(format!("bad CER id '{cer}' (want A#0)")))?;
    let scope = nonrepudiation_scope(&doc, &PredRef::Cer(key)).map_err(|e| err(e.to_string()))?;
    let mut out = format!("nonrepudiation scope of {cer} ({} nodes):\n", scope.len());
    for node in scope {
        writeln!(out, "  {node}").ok();
    }
    Ok(out)
}

fn cmd_dot(opts: &Opts) -> Result<String, CliError> {
    if let Some(wf) = opts.opt("workflow") {
        let dsl = std::fs::read_to_string(wf).map_err(|e| err(format!("{wf}: {e}")))?;
        let def = parse_workflow(&dsl).map_err(|e| err(e.to_string()))?;
        return Ok(def.to_dot());
    }
    if let Some(doc_path) = opts.opt("doc") {
        let xml = std::fs::read_to_string(doc_path).map_err(|e| err(format!("{doc_path}: {e}")))?;
        let doc = DraDocument::parse(&xml).map_err(|e| err(e.to_string()))?;
        let definition =
            crate::core::amendment::effective_definition(&doc).map_err(|e| err(e.to_string()))?;
        return Ok(definition.def.to_dot());
    }
    Err(err("dot requires --workflow <dsl-file> or --doc <xml-file>"))
}

const USAGE: &str = "dra — engine-less nonrepudiatable workflow management (DRA4WfMS)

commands:
  keygen <name> --keys <dir>                       generate a keypair
  init --workflow <dsl> [--policy <file>] --designer <name> --keys <dir> --out <xml>
  execute --doc <xml> [--doc <xml>…] --activity <id> --as <name>
          [--respond field=value…] --keys <dir> --out <xml>
  tfc --doc <intermediate-xml> --as <tfc-name> --keys <dir> --out <xml>
  verify --doc <xml> --keys <dir>                  verify every signature
  status --doc <xml>                               audit trail
  scope --doc <xml> --cer <A#0>                    nonrepudiation scope
  dot [--workflow <dsl> | --doc <xml>]             Graphviz export
";

/// Entry point shared by the binary and the tests: run one command, return
/// its stdout text.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let Some(command) = args.first() else {
        return Ok(USAGE.to_string());
    };
    let opts = Opts::parse(&args[1..])?;
    match command.as_str() {
        "keygen" => cmd_keygen(&opts),
        "init" => cmd_init(&opts),
        "execute" => cmd_execute(&opts),
        "tfc" => cmd_tfc(&opts),
        "verify" => cmd_verify(&opts),
        "status" => cmd_status(&opts),
        "scope" => cmd_scope(&opts),
        "dot" => cmd_dot(&opts),
        "help" | "--help" | "-h" => Ok(USAGE.to_string()),
        other => Err(err(format!("unknown command '{other}'\n\n{USAGE}"))),
    }
}
