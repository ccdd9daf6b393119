//! `docs/CONFIG.md` is checked against the structs it documents: every
//! public field of `MatrixConfig`, `GameServerConfig` and
//! `CoordinatorConfig` has exactly one table row in that struct's
//! section, and every row names a field that still exists.

const CONFIG_RS: &str = include_str!("../crates/core/src/config.rs");
const CONFIG_MD: &str = include_str!("../docs/CONFIG.md");

/// The `pub <field>:` names declared inside `pub struct <name> { … }`.
fn struct_fields(name: &str) -> Vec<&'static str> {
    let open = format!("pub struct {name} {{");
    let start = CONFIG_RS
        .find(&open)
        .unwrap_or_else(|| panic!("config.rs has no `{open}`"));
    CONFIG_RS[start + open.len()..]
        .lines()
        .take_while(|line| *line != "}")
        .filter_map(|line| line.trim().strip_prefix("pub ")?.split_once(':'))
        .map(|(field, _)| field)
        .collect()
}

/// The first-cell names (`` | `<name>` | ``) of the table rows in the
/// section headed ``## `<name>` ``.
fn documented_rows(name: &str) -> Vec<&'static str> {
    let heading = format!("## `{name}`");
    let start = CONFIG_MD
        .find(&heading)
        .unwrap_or_else(|| panic!("CONFIG.md has no `{heading}` section"));
    CONFIG_MD[start + heading.len()..]
        .lines()
        .take_while(|line| !line.starts_with("## "))
        .filter_map(|line| line.strip_prefix("| `")?.split_once("` |"))
        .map(|(row, _)| row)
        .collect()
}

#[test]
fn every_config_field_has_exactly_one_row_and_every_row_a_field() {
    for name in ["MatrixConfig", "GameServerConfig", "CoordinatorConfig"] {
        let fields = struct_fields(name);
        let rows = documented_rows(name);
        assert!(!fields.is_empty(), "{name}: no fields parsed");
        for field in &fields {
            let n = rows.iter().filter(|row| row == &field).count();
            assert_eq!(n, 1, "{name}::{field} has {n} rows in docs/CONFIG.md");
        }
        for row in &rows {
            assert!(
                fields.contains(row),
                "docs/CONFIG.md documents `{row}` under {name}, which has no such field"
            );
        }
    }
}
