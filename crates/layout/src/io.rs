//! Plain-text interchange format for split-manufacturing challenges.
//!
//! A [`SplitView`] serialises to two files:
//!
//! - a **challenge** (`*.challenge`) — everything the untrusted foundry
//!   sees: die, split layer, and one line per v-pin with its location,
//!   placement-pin location, below-split wirelength, in/out cell areas and
//!   congestion values;
//! - a **truth** file (`*.truth`) — the hidden matching, used only for
//!   scoring an attack.
//!
//! The format is line-oriented, whitespace-separated, `#`-commented, and
//! versioned; it needs no dependencies and diffs cleanly under version
//! control.
//!
//! ```text
//! # splitmfg challenge v1
//! name sb1
//! split 8
//! die 0 0 273000 273000
//! vpins 2
//! 0 1000 2000 900 1900 3400 266000 0 1.5 2.0
//! 1 5000 2000 5100 2100 1200 0 532000 1.0 1.0
//! ```

use std::fmt::Write as _;

use crate::geom::{Point, Rect};
use crate::split::{SplitView, VPin, MAX_COORD};
use crate::tech::SplitLayer;

/// Errors produced while parsing challenge/truth files.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseChallengeError {
    /// The header line or version marker is missing or unsupported.
    BadHeader(String),
    /// A required field is missing or malformed.
    BadField {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The v-pin count does not match the declared `vpins` header.
    CountMismatch {
        /// Declared count.
        declared: usize,
        /// Lines actually present.
        found: usize,
    },
    /// The truth table is not a valid matching.
    BadTruth(String),
}

impl std::fmt::Display for ParseChallengeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseChallengeError::BadHeader(h) => write!(f, "unsupported header: {h}"),
            ParseChallengeError::BadField { line, message } => {
                write!(f, "line {line}: {message}")
            }
            ParseChallengeError::CountMismatch { declared, found } => {
                write!(f, "declared {declared} v-pins but found {found}")
            }
            ParseChallengeError::BadTruth(m) => write!(f, "invalid truth table: {m}"),
        }
    }
}

impl std::error::Error for ParseChallengeError {}

const CHALLENGE_HEADER: &str = "# splitmfg challenge v1";
const TRUTH_HEADER: &str = "# splitmfg truth v1";

/// Serialises the attacker-visible challenge.
pub fn write_challenge(view: &SplitView) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{CHALLENGE_HEADER}");
    let _ = writeln!(out, "name {}", view.name);
    let _ = writeln!(out, "split {}", view.split.via_index());
    let _ = writeln!(
        out,
        "die {} {} {} {}",
        view.die.lo.x, view.die.lo.y, view.die.hi.x, view.die.hi.y
    );
    let _ = writeln!(out, "vpins {}", view.num_vpins());
    let _ = writeln!(out, "# idx vx vy px py w in_area out_area pc rc");
    for (i, vp) in view.vpins().iter().enumerate() {
        let _ = writeln!(
            out,
            "{i} {} {} {} {} {} {} {} {} {}",
            vp.loc.x,
            vp.loc.y,
            vp.pin_loc.x,
            vp.pin_loc.y,
            vp.wirelength,
            vp.in_area,
            vp.out_area,
            vp.pc,
            vp.rc
        );
    }
    out
}

/// Serialises the hidden matching (one `i j` line per pair, `i < j`).
pub fn write_truth(view: &SplitView) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{TRUTH_HEADER}");
    let _ = writeln!(out, "name {}", view.name);
    for i in 0..view.num_vpins() {
        let m = view.true_match(i);
        if i < m {
            let _ = writeln!(out, "{i} {m}");
        }
    }
    out
}

/// Parses a challenge and its truth file back into a [`SplitView`].
///
/// # Errors
///
/// Returns a [`ParseChallengeError`] describing the first malformed line.
pub fn read_challenge(challenge: &str, truth: &str) -> Result<SplitView, ParseChallengeError> {
    let mut lines = challenge.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| ParseChallengeError::BadHeader("empty file".into()))?;
    if header.trim() != CHALLENGE_HEADER {
        return Err(ParseChallengeError::BadHeader(header.to_owned()));
    }

    let mut name = String::new();
    let mut split = None;
    let mut die = None;
    let mut declared = None;
    let mut vpins: Vec<VPin> = Vec::new();

    for (ln, raw) in lines {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tok = line.split_whitespace();
        let first = tok.next().expect("non-empty line has a token");
        match first {
            "name" => {
                name = tok.next().unwrap_or("").to_owned();
            }
            "split" => {
                let v: u8 = parse_tok(&mut tok, ln, "split layer")?;
                split = Some(
                    SplitLayer::new(v).map_err(|e| ParseChallengeError::BadField {
                        line: ln + 1,
                        message: e.to_string(),
                    })?,
                );
            }
            "die" => {
                let x0 = parse_coord(&mut tok, ln, "die x0")?;
                let y0 = parse_coord(&mut tok, ln, "die y0")?;
                let x1 = parse_coord(&mut tok, ln, "die x1")?;
                let y1 = parse_coord(&mut tok, ln, "die y1")?;
                if x1 <= x0 || y1 <= y0 {
                    return Err(ParseChallengeError::BadField {
                        line: ln + 1,
                        message: "degenerate die".into(),
                    });
                }
                die = Some(Rect::new(Point::new(x0, y0), Point::new(x1, y1)));
            }
            "vpins" => {
                declared = Some(parse_tok::<usize>(&mut tok, ln, "v-pin count")?);
            }
            _ => {
                // A v-pin record: idx vx vy px py w in out pc rc.
                let _idx: usize = first.parse().map_err(|_| ParseChallengeError::BadField {
                    line: ln + 1,
                    message: format!("unknown directive '{first}'"),
                })?;
                let vx = parse_coord(&mut tok, ln, "vx")?;
                let vy = parse_coord(&mut tok, ln, "vy")?;
                let px = parse_coord(&mut tok, ln, "px")?;
                let py = parse_coord(&mut tok, ln, "py")?;
                let w: i64 = parse_tok(&mut tok, ln, "wirelength")?;
                let in_area: i64 = parse_tok(&mut tok, ln, "in_area")?;
                let out_area: i64 = parse_tok(&mut tok, ln, "out_area")?;
                let pc: f64 = parse_tok(&mut tok, ln, "pc")?;
                let rc: f64 = parse_tok(&mut tok, ln, "rc")?;
                vpins.push(VPin {
                    loc: Point::new(vx, vy),
                    pin_loc: Point::new(px, py),
                    wirelength: w,
                    in_area,
                    out_area,
                    pc,
                    rc,
                });
            }
        }
    }

    let split = split.ok_or_else(|| ParseChallengeError::BadHeader("missing split".into()))?;
    let die = die.ok_or_else(|| ParseChallengeError::BadHeader("missing die".into()))?;
    if let Some(d) = declared {
        if d != vpins.len() {
            return Err(ParseChallengeError::CountMismatch {
                declared: d,
                found: vpins.len(),
            });
        }
    }

    // Truth file.
    let mut partner = vec![u32::MAX; vpins.len()];
    for (ln, raw) in truth.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with("name") {
            continue;
        }
        let mut tok = line.split_whitespace();
        let i: usize = parse_tok(&mut tok, ln, "pair lhs")?;
        let j: usize = parse_tok(&mut tok, ln, "pair rhs")?;
        if i >= partner.len() || j >= partner.len() {
            return Err(ParseChallengeError::BadTruth(format!(
                "pair ({i}, {j}) out of range"
            )));
        }
        partner[i] = j as u32;
        partner[j] = i as u32;
    }
    if partner.contains(&u32::MAX) {
        return Err(ParseChallengeError::BadTruth(
            "some v-pins are unmatched".into(),
        ));
    }

    SplitView::from_parts(name, split, die, vpins, partner)
        .map_err(|e| ParseChallengeError::BadTruth(e.to_string()))
}

/// [`parse_tok`] for a coordinate, which must lie within
/// [`MAX_COORD`] of the origin (see [`SplitView`]).
fn parse_coord(
    tok: &mut std::str::SplitWhitespace<'_>,
    line: usize,
    what: &str,
) -> Result<i64, ParseChallengeError> {
    let c: i64 = parse_tok(tok, line, what)?;
    if !(-MAX_COORD..=MAX_COORD).contains(&c) {
        return Err(ParseChallengeError::BadField {
            line: line + 1,
            message: format!("{what} {c} outside ±{MAX_COORD} DBU"),
        });
    }
    Ok(c)
}

fn parse_tok<T: std::str::FromStr>(
    tok: &mut std::str::SplitWhitespace<'_>,
    line: usize,
    what: &str,
) -> Result<T, ParseChallengeError> {
    tok.next()
        .ok_or_else(|| ParseChallengeError::BadField {
            line: line + 1,
            message: format!("missing {what}"),
        })?
        .parse()
        .map_err(|_| ParseChallengeError::BadField {
            line: line + 1,
            message: format!("malformed {what}"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::Suite;

    fn view() -> SplitView {
        Suite::ispd2011_like(0.01)
            .expect("valid scale")
            .split_all(SplitLayer::new(8).expect("valid"))
            .remove(0)
    }

    #[test]
    fn roundtrip_preserves_everything_observable() {
        let v = view();
        let restored =
            read_challenge(&write_challenge(&v), &write_truth(&v)).expect("roundtrip parses");
        assert_eq!(restored.name, v.name);
        assert_eq!(restored.split, v.split);
        assert_eq!(restored.die, v.die);
        assert_eq!(restored.num_vpins(), v.num_vpins());
        for i in 0..v.num_vpins() {
            assert_eq!(restored.vpins()[i].loc, v.vpins()[i].loc);
            assert_eq!(restored.vpins()[i].wirelength, v.vpins()[i].wirelength);
            assert!((restored.vpins()[i].pc - v.vpins()[i].pc).abs() < 1e-9);
            assert_eq!(restored.true_match(i), v.true_match(i));
        }
    }

    #[test]
    fn rejects_bad_headers() {
        let v = view();
        let err = read_challenge("# not a challenge\n", &write_truth(&v));
        assert!(matches!(err, Err(ParseChallengeError::BadHeader(_))));
    }

    #[test]
    fn rejects_count_mismatch() {
        let v = view();
        let mut text = write_challenge(&v);
        // Drop the final v-pin record.
        text.truncate(text.trim_end().rfind('\n').expect("multi-line"));
        let err = read_challenge(&text, &write_truth(&v));
        assert!(matches!(
            err,
            Err(ParseChallengeError::CountMismatch { .. })
        ));
    }

    #[test]
    fn rejects_incomplete_truth() {
        let v = view();
        let truth = format!("{TRUTH_HEADER}\nname x\n0 1\n");
        if v.num_vpins() > 2 {
            let err = read_challenge(&write_challenge(&v), &truth);
            assert!(matches!(err, Err(ParseChallengeError::BadTruth(_))));
        }
    }

    #[test]
    fn rejects_malformed_records() {
        let v = view();
        let text = write_challenge(&v).replace("vpins", "vpins not_a_number\n#");
        let err = read_challenge(&text, &write_truth(&v));
        assert!(err.is_err());
    }

    #[test]
    fn error_messages_are_located() {
        let text = format!("{CHALLENGE_HEADER}\nsplit banana\n");
        match read_challenge(&text, "") {
            Err(ParseChallengeError::BadField { line, message }) => {
                assert_eq!(line, 2);
                assert!(message.contains("split layer"));
            }
            other => panic!("expected BadField, got {other:?}"),
        }
    }

    #[test]
    fn rejects_coordinates_beyond_the_bound() {
        let v = view();
        let die = format!(
            "die {} {} {} {}",
            v.die.lo.x, v.die.lo.y, v.die.hi.x, v.die.hi.y
        );
        let huge =
            write_challenge(&v).replace(&die, "die 0 0 4000000000000000000 4000000000000000000");
        match read_challenge(&huge, &write_truth(&v)) {
            Err(ParseChallengeError::BadField { line, message }) => {
                assert_eq!(line, 4);
                assert!(message.contains("die x1"), "{message}");
            }
            other => panic!("expected BadField, got {other:?}"),
        }
        let min = write_challenge(&v).replace(&die, &format!("die {} 0 1 1", i64::MIN));
        assert!(matches!(
            read_challenge(&min, &write_truth(&v)),
            Err(ParseChallengeError::BadField { line: 4, .. })
        ));
        // The bound itself is accepted; one past it on a v-pin is not.
        let at = write_challenge(&v).replace(
            &die,
            &format!("die -{MAX_COORD} -{MAX_COORD} {MAX_COORD} {MAX_COORD}"),
        );
        assert!(read_challenge(&at, &write_truth(&v)).is_ok());
        let first = write_challenge(&v)
            .lines()
            .find(|l| l.starts_with("0 "))
            .expect("v-pin 0 record")
            .to_owned();
        let mut fields: Vec<String> = first.split(' ').map(str::to_owned).collect();
        fields[2] = (MAX_COORD + 1).to_string();
        let past = write_challenge(&v).replace(&first, &fields.join(" "));
        match read_challenge(&past, &write_truth(&v)) {
            Err(ParseChallengeError::BadField { message, .. }) => {
                assert!(message.contains("vy"), "{message}");
            }
            other => panic!("expected BadField, got {other:?}"),
        }
    }
}
