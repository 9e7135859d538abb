//! README.md's reference blocks are generated, never edited by hand: each
//! `atf-tune help <command>` block is what the binary prints for it (the
//! flag lines come from the command's flag table), and the trace reference
//! is rendered from `atf_core::trace::{KINDS, FIELDS}`. This test fails
//! when a block differs from what the tables render now. To refresh the
//! blocks, run it with `ATF_BLESS=1`:
//!
//! ```text
//! ATF_BLESS=1 cargo test -p atf-cli --test reference
//! ```

use atf_core::trace::{FIELDS, KINDS};
use std::path::PathBuf;
use std::process::Command;

const END: &str = "<!-- END generated -->";

fn readme() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../README.md")
}

fn help(command: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_atf-tune"))
        .args(["help", command])
        .output()
        .unwrap();
    assert!(out.status.success(), "atf-tune help {command}");
    format!("```text\n{}```\n", String::from_utf8(out.stdout).unwrap())
}

/// One row per kind (its optional fields in brackets), then one per field.
fn trace_reference() -> String {
    let mut out = String::from("| `event` | Fields | Emitted when |\n|---|---|---|\n");
    for kind in KINDS {
        let required = kind.required.iter().map(|f| format!("`{f}`"));
        let optional = kind.optional.iter().map(|f| format!("[`{f}`]"));
        let fields: Vec<_> = required.chain(optional).collect();
        out += &format!(
            "| `{}` | {} | {} |\n",
            kind.name,
            fields.join(", "),
            kind.doc.trim()
        );
    }
    out += "\n| Field | Meaning |\n|---|---|\n";
    for (name, doc) in FIELDS {
        out += &format!("| `{name}` | {} |\n", doc.trim());
    }
    out
}

#[test]
fn readme_reference_blocks_match_what_the_tables_render() {
    let blocks = ["run", "serve", "client", "campaign"]
        .map(|command| (format!("atf-tune help {command}"), help(command)))
        .into_iter()
        .chain([("trace reference".to_string(), trace_reference())]);
    let path = readme();
    let readme = std::fs::read_to_string(&path).unwrap();
    let mut rendered = readme.clone();
    let mut stale = Vec::new();
    for (name, body) in blocks {
        let begin = format!("<!-- BEGIN generated: {name} -->\n");
        let start = rendered
            .find(&begin)
            .unwrap_or_else(|| panic!("README.md has no `{begin}` marker"))
            + begin.len();
        let stop = start + rendered[start..].find(END).expect("an END marker");
        if rendered[start..stop] != body {
            stale.push(name);
            rendered.replace_range(start..stop, &body);
        }
    }
    if std::env::var_os("ATF_BLESS").is_some() {
        std::fs::write(&path, rendered).unwrap();
        return;
    }
    assert!(
        stale.is_empty(),
        "README.md's generated {stale:?} differ from what the tables render; \
         refresh them with `ATF_BLESS=1 cargo test -p atf-cli --test reference`"
    );
}
