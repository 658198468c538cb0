//! DESIGN.md's record tables against the record declarations: the
//! event table of §7 lists every `Event` type with its fields in wire
//! order, the journal table of §9b every `JournalRecord` type, and the
//! sentence under it every field of the spec record. A record type or
//! field added, renamed or dropped without its row fails here.

use bayes_obs::Event;
use bayes_serve::journal::{JournalRecord, SpecRecord};
use bayes_serve::JobSpec;
use std::collections::BTreeMap;

type Table = BTreeMap<String, Vec<String>>;

fn design() -> String {
    std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md"))
        .expect("DESIGN.md is readable")
}

/// The text of `doc` from the line starting with `from` to the next
/// line starting with `to`.
fn section<'a>(doc: &'a str, from: &str, to: &str) -> &'a str {
    let start = doc
        .find(&format!("\n{from}"))
        .unwrap_or_else(|| panic!("no section {from:?}"));
    let rest = &doc[start + 1..];
    let end = rest[1..]
        .find(&format!("\n{to}"))
        .map_or(rest.len(), |e| e + 1);
    &rest[..end]
}

/// The backticked lowercase identifiers of `text`, in order: field
/// names, leaving out values, paths and types.
fn identifiers(text: &str) -> Vec<String> {
    text.split('`')
        .skip(1)
        .step_by(2)
        .filter(|t| {
            t.starts_with(|c: char| c.is_ascii_lowercase())
                && t.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        })
        .map(str::to_string)
        .collect()
}

/// Rows of the markdown tables in `text` whose first cell is one
/// backticked tag: the tag, with the identifiers of cell `column`
/// (counting from 0, the tag cell).
fn table(text: &str, column: usize) -> Table {
    text.lines()
        .filter_map(|line| {
            let cells: Vec<&str> = line.trim().strip_prefix('|')?.split('|').collect();
            let tag = cells[0].trim().strip_prefix('`')?.strip_suffix('`')?;
            Some((tag.to_string(), identifiers(cells.get(column)?)))
        })
        .collect()
}

fn declared(types: &[(&str, &[&str])]) -> Table {
    types
        .iter()
        .map(|(tag, fields)| {
            (
                tag.to_string(),
                fields.iter().map(|f| f.to_string()).collect(),
            )
        })
        .collect()
}

#[test]
fn the_event_table_lists_every_type_and_field() {
    let doc = design();
    let documented = table(section(&doc, "## 7. Observability", "### 7b."), 2);
    assert_eq!(Event::TYPES.len(), 28);
    assert_eq!(documented, declared(Event::TYPES));
}

#[test]
fn the_journal_table_lists_every_record_and_field() {
    let doc = design();
    let durability = section(&doc, "### 9b.", "**Checkpoint store.**");
    assert_eq!(JournalRecord::TYPES.len(), 10);
    assert_eq!(table(durability, 1), declared(JournalRecord::TYPES));

    // The spec record's fields, from what it writes.
    let spec = SpecRecord::of(&JobSpec::new("n", "12cities"));
    let line = JournalRecord::Submitted { job: 1, spec }.to_json();
    let parsed = bayes_obs::json::parse(&line).unwrap();
    let Some(bayes_obs::json::Json::Obj(fields)) = parsed.get("spec") else {
        panic!("{line}");
    };
    let written: Vec<String> = fields
        .iter()
        .map(|(k, _)| k.clone())
        .filter(|k| k != "type")
        .collect();
    let holds = durability
        .find("The `spec` object")
        .expect("the spec sentence");
    let sentence = &durability[holds..];
    let sentence = &sentence[sentence.find("holds").unwrap()..sentence.find(". ").unwrap()];
    let listed = identifiers(sentence);
    assert_eq!(listed, written);
}
