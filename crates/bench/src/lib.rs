//! # fmt-bench
//!
//! Criterion benchmark harness for the toolbox, one bench target per
//! performance-shaped experiment of DESIGN.md §5:
//!
//! | bench | experiment | claim measured |
//! |---|---|---|
//! | `combined_complexity` | E1 | naive evaluation exponential in rank, polynomial in data |
//! | `ac0_circuits` | E2 | circuit compile/eval cost polynomial; depth constant |
//! | `ef_games` | E3/E16 | game solving cost; ablation of memoization/pruning |
//! | `locality` | E6/E8/E9 | neighborhood census, Hanf checks, violation search |
//! | `datalog` | E7 | naive vs semi-naive fixpoint evaluation |
//! | `bounded_degree` | E10 | census pass linear vs textbook superlinear |
//! | `zero_one` | E13/E14 | sampling, μ estimation, symbolic 0-1 decision |
//!
//! Run all with `cargo bench`, or one with e.g.
//! `cargo bench --bench ef_games`.

/// Shared helper: a small deterministic RNG seed used across benches so
/// runs are comparable.
pub const BENCH_SEED: u64 = 0x2009_0629;

/// Sets the top-level entry `"key"` of the JSON object `json` (a
/// `BENCH_*.json` file) to `block`, a JSON value: an existing entry's
/// value is replaced up to its matching closing brace, an absent key is
/// appended before the object's closing brace. Every other entry is
/// kept byte for byte, so the bench binaries that each own one block
/// can run in any order without dropping each other's results.
///
/// # Panics
/// Panics if `json` is not a JSON object.
pub fn replace_block(json: &str, key: &str, block: &str) -> String {
    if let Some(value) = top_level_value(json, key) {
        return format!("{}{block}{}", &json[..value.start], &json[value.end..]);
    }
    let body = json
        .trim_end()
        .strip_suffix('}')
        .expect("a BENCH_*.json file is a JSON object")
        .trim_end();
    let sep = if body.ends_with('{') { "" } else { "," };
    format!("{body}{sep}\n  \"{key}\":{block}\n}}\n")
}

/// Byte range of the value of the top-level entry `key` of the JSON
/// object `json`, if present.
fn top_level_value(json: &str, key: &str) -> Option<std::ops::Range<usize>> {
    let b = json.as_bytes();
    let mut depth = 0usize;
    let mut value_start: Option<usize> = None;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'"' => {
                let start = i + 1;
                i += 1;
                while b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                if depth == 1 && value_start.is_none() && &json[start..i] == key {
                    if let Some(rest) = json[i + 1..].trim_start().strip_prefix(':') {
                        let v = json.len() - rest.trim_start().len();
                        value_start = Some(v);
                        i = v;
                        continue;
                    }
                }
            }
            b'{' | b'[' => depth += 1,
            b'}' | b']' => {
                depth -= 1;
                match (value_start, depth) {
                    (Some(v), 1) => return Some(v..i + 1),
                    (Some(v), 0) => return Some(v..json[..i].trim_end().len()),
                    _ => {}
                }
            }
            b',' if depth == 1 => {
                if let Some(v) = value_start {
                    return Some(v..i);
                }
            }
            _ => {}
        }
        i += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::replace_block;

    const JSON: &str = "{\n  \"bench\":\"datalog\",\n  \"rows\":[{\"a\":1},{\"b\":[2,3]}],\n  \
                        \"incremental\":{\"speedup\":7.5,\"nested\":{\"x\":\"}\"}},\n  \
                        \"magic\":{\"pruning\":9.0}\n}\n";

    #[test]
    fn replacing_a_middle_block_keeps_the_blocks_after_it() {
        let out = replace_block(JSON, "incremental", "{\"speedup\":8.0}");
        assert_eq!(
            out,
            JSON.replace(
                "{\"speedup\":7.5,\"nested\":{\"x\":\"}\"}}",
                "{\"speedup\":8.0}"
            )
        );
        assert!(out.contains("\"magic\":{\"pruning\":9.0}"));
        assert!(out.contains("\"rows\":[{\"a\":1},{\"b\":[2,3]}]"));
        let out = replace_block(JSON, "rows", "[]");
        assert!(out.contains("\"rows\":[],\n  \"incremental\":{\"speedup\":7.5,"));
        let out = replace_block(JSON, "magic", "{}");
        assert!(out.ends_with("\"magic\":{}\n}\n"), "{out}");
        let out = replace_block(JSON, "bench", "\"other\"");
        assert!(
            out.starts_with("{\n  \"bench\":\"other\",\n  \"rows\""),
            "{out}"
        );
    }

    #[test]
    fn absent_keys_are_appended() {
        let out = replace_block(JSON, "budget_overhead", "{\"overhead\":0.01}");
        assert_eq!(
            out,
            JSON.replace(
                "{\"pruning\":9.0}\n}",
                "{\"pruning\":9.0},\n  \"budget_overhead\":{\"overhead\":0.01}\n}"
            )
        );
        // A key nested below the top level is not a top-level entry.
        let out = replace_block(JSON, "speedup", "1");
        assert!(out.ends_with("\"magic\":{\"pruning\":9.0},\n  \"speedup\":1\n}\n"));
        assert_eq!(replace_block("{}", "k", "1"), "{\n  \"k\":1\n}\n");
    }

    #[test]
    fn running_twice_gives_the_same_result_as_running_once() {
        for key in ["bench", "rows", "incremental", "magic", "budget_overhead"] {
            let once = replace_block(JSON, key, "{\"v\":1}");
            let twice = replace_block(&once, key, "{\"v\":1}");
            assert_eq!(once, twice, "key {key}");
        }
        // Any order of the three bench blocks yields all three.
        let mut json = JSON.to_owned();
        for key in ["budget_overhead", "incremental", "magic", "budget_overhead"] {
            json = replace_block(&json, key, "{}");
        }
        for key in ["budget_overhead", "incremental", "magic", "rows"] {
            assert!(json.contains(&format!("\"{key}\":")), "{key} lost: {json}");
        }
    }
}
