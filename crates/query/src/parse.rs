//! Parser for the query language.
//!
//! Accepts both the terse keyword syntax and the "natural language like"
//! phrasings Figure 5 advertises:
//!
//! ```text
//! TRENDING LIMIT 5                 |  what is trending
//! ABOUT Apex Robotics              |  tell me about Apex Robotics
//! WHY Apex Robotics -> Condor Labs VIA acquired LIMIT 3
//!                                  |  why is Apex Robotics related to Condor Labs
//! MATCH (Company)-[acquired]->(Company) LIMIT 10
//! PATHS Apex Robotics TO Condor Labs MAX 4 LIMIT 5
//! ```

use crate::ast::{Endpoint, Query};
use std::fmt;

/// Parse failure with a human-oriented message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "query parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

const DEFAULT_LIMIT: usize = 10;
const DEFAULT_HOPS: usize = 4;

/// Split a trailing `LIMIT n` clause.
///
/// Only the *trailing* clause counts: `ABOUT No Limit Records` keeps its
/// interior "Limit" as entity text. Splitting walks back from the end of
/// the original string — never through a lowercased copy, whose byte
/// offsets disagree with the original for characters like `İ` (one char
/// that lowercases to two).
fn take_limit(input: &str) -> (String, usize) {
    let s = input.trim();
    if let Some((head, num)) = s.rsplit_once(char::is_whitespace) {
        if let Ok(n) = num.parse::<usize>() {
            if let Some((body, kw)) = head.trim_end().rsplit_once(char::is_whitespace) {
                if kw.eq_ignore_ascii_case("limit") && !body.trim().is_empty() {
                    return (body.trim().to_owned(), n.max(1));
                }
            }
        }
    }
    (s.to_owned(), DEFAULT_LIMIT)
}

/// Byte length of `pat` matched case-insensitively at the start of
/// `input`, if it matches there. The length is accumulated from the
/// characters of `input` itself, so callers can slice `input` at the
/// returned offset without ever landing mid-character. Keywords are
/// ASCII, so ASCII case folding is sufficient; non-ASCII characters
/// only match themselves.
fn ci_prefix_len(input: &str, pat: &str) -> Option<usize> {
    let mut len = 0usize;
    let mut chars = input.chars();
    for pch in pat.chars() {
        let ich = chars.next()?;
        if !ich.eq_ignore_ascii_case(&pch) {
            return None;
        }
        len += ich.len_utf8();
    }
    Some(len)
}

/// Case-insensitive prefix strip. Offsets come from the original string
/// (via [`ci_prefix_len`]), never a lowercased copy.
fn strip_prefix_ci<'a>(input: &'a str, prefix: &str) -> Option<&'a str> {
    ci_prefix_len(input, prefix).map(|n| input[n..].trim())
}

/// Case-insensitive split on the first occurrence of a separator word.
/// Scans char boundaries of the original string, so arbitrary UTF-8
/// input cannot produce a mid-character slice.
fn split_once_ci<'a>(input: &'a str, sep: &str) -> Option<(&'a str, &'a str)> {
    for (i, _) in input.char_indices() {
        if let Some(n) = ci_prefix_len(&input[i..], sep) {
            return Some((input[..i].trim(), input[i + n..].trim()));
        }
    }
    None
}

fn parse_endpoint(s: &str) -> Endpoint {
    let s = s.trim();
    if s == "*" || s.eq_ignore_ascii_case("any") {
        return Endpoint::Any;
    }
    if let Some(stripped) = s.strip_prefix('"').and_then(|x| x.strip_suffix('"')) {
        return Endpoint::Constant(stripped.to_owned());
    }
    Endpoint::Type(s.to_owned())
}

/// Parse one query string.
pub fn parse(input: &str) -> Result<Query, ParseError> {
    let input = input.trim().trim_end_matches(['?', '.']).trim();
    if input.is_empty() {
        return Err(ParseError("empty query".into()));
    }
    let (body, limit) = take_limit(input);
    let lower = body.to_lowercase();

    // Class 1: trending.
    if lower == "trending"
        || lower == "what is trending"
        || lower == "show trending patterns"
        || lower == "what's trending"
    {
        return Ok(Query::Trending { limit });
    }

    // Class 2: entity.
    for prefix in ["about ", "tell me about ", "who is ", "what is "] {
        if let Some(rest) = strip_prefix_ci(&body, prefix) {
            if rest.is_empty() {
                return Err(ParseError("ABOUT requires an entity name".into()));
            }
            return Ok(Query::Entity {
                name: rest.to_owned(),
            });
        }
    }

    // Class 3: why / explanatory.
    if let Some(rest) = strip_prefix_ci(&body, "why ") {
        // Optional "is" and connective phrasings.
        let rest = strip_prefix_ci(rest, "is ").unwrap_or(rest);
        let (pair, via) = match split_once_ci(rest, " via ") {
            Some((p, v)) => (p, Some(v.trim().to_owned())),
            None => (rest, None),
        };
        let (src, dst) = split_once_ci(pair, "->")
            .or_else(|| split_once_ci(pair, " related to "))
            .or_else(|| split_once_ci(pair, " connected to "))
            .ok_or_else(|| {
                ParseError("WHY requires '<a> -> <b>' or '<a> related to <b>'".into())
            })?;
        if src.is_empty() || dst.is_empty() {
            return Err(ParseError("WHY endpoints must be non-empty".into()));
        }
        return Ok(Query::Why {
            source: src.to_owned(),
            target: dst.to_owned(),
            via,
            limit,
        });
    }

    // Class 4: pattern match: MATCH (src)-[pred]->(dst)
    if let Some(rest) = strip_prefix_ci(&body, "match ") {
        let rest = rest.trim();
        let open = rest.strip_prefix('(').ok_or_else(bad_match)?;
        let (src, rest) = open.split_once(')').ok_or_else(bad_match)?;
        let rest = rest.trim().strip_prefix("-[").ok_or_else(bad_match)?;
        let (pred, rest) = rest.split_once(']').ok_or_else(bad_match)?;
        let rest = rest.trim().strip_prefix("->").ok_or_else(bad_match)?;
        let rest = rest.trim().strip_prefix('(').ok_or_else(bad_match)?;
        let (dst, tail) = rest.split_once(')').ok_or_else(bad_match)?;
        // Optional temporal clauses: SINCE <day> UNTIL <day>.
        let mut since = None;
        let mut until = None;
        let mut tail = tail.trim();
        loop {
            if let Some(rest) = strip_prefix_ci(tail, "since ") {
                let (num, next) = rest.split_once(' ').unwrap_or((rest, ""));
                since = Some(
                    num.parse::<u64>()
                        .map_err(|_| ParseError("SINCE requires a day number".into()))?,
                );
                tail = next.trim();
            } else if let Some(rest) = strip_prefix_ci(tail, "until ") {
                let (num, next) = rest.split_once(' ').unwrap_or((rest, ""));
                until = Some(
                    num.parse::<u64>()
                        .map_err(|_| ParseError("UNTIL requires a day number".into()))?,
                );
                tail = next.trim();
            } else {
                break;
            }
        }
        if !tail.is_empty() {
            return Err(bad_match());
        }
        if pred.trim().is_empty() {
            return Err(ParseError("MATCH predicate must be non-empty".into()));
        }
        return Ok(Query::Match {
            src: parse_endpoint(src),
            predicate: pred.trim().to_owned(),
            dst: parse_endpoint(dst),
            limit,
            since,
            until,
        });
    }

    // Timeline: chronological entity history.
    for prefix in ["timeline ", "history of ", "what happened to "] {
        if let Some(rest) = strip_prefix_ci(&body, prefix) {
            if rest.is_empty() {
                return Err(ParseError("TIMELINE requires an entity name".into()));
            }
            return Ok(Query::Timeline {
                name: rest.to_owned(),
                limit,
            });
        }
    }

    // Class 5: paths.
    if let Some(rest) = strip_prefix_ci(&body, "paths ") {
        let (rest, max_hops) = match split_once_ci(rest, " max ") {
            Some((head, n)) => (
                head,
                n.trim()
                    .parse::<usize>()
                    .map_err(|_| ParseError("MAX requires a number".into()))?,
            ),
            None => (rest, DEFAULT_HOPS),
        };
        let (src, dst) = split_once_ci(rest, " to ")
            .ok_or_else(|| ParseError("PATHS requires '<a> TO <b>'".into()))?;
        if src.is_empty() || dst.is_empty() {
            return Err(ParseError("PATHS endpoints must be non-empty".into()));
        }
        return Ok(Query::Paths {
            source: src.to_owned(),
            target: dst.to_owned(),
            max_hops: max_hops.clamp(1, 8),
            limit,
        });
    }

    Err(ParseError(format!(
        "unrecognised query '{input}'; expected TRENDING, ABOUT, WHY, MATCH, PATHS or TIMELINE"
    )))
}

fn bad_match() -> ParseError {
    ParseError("MATCH syntax: MATCH (Type|\"Name\"|*)-[predicate]->(Type|\"Name\"|*)".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trending_variants() {
        assert_eq!(parse("TRENDING").unwrap(), Query::Trending { limit: 10 });
        assert_eq!(
            parse("what is trending?").unwrap(),
            Query::Trending { limit: 10 }
        );
        assert_eq!(
            parse("trending limit 3").unwrap(),
            Query::Trending { limit: 3 }
        );
    }

    #[test]
    fn entity_variants() {
        assert_eq!(
            parse("ABOUT Apex Robotics").unwrap(),
            Query::Entity {
                name: "Apex Robotics".into()
            }
        );
        assert_eq!(
            parse("tell me about DJI").unwrap(),
            Query::Entity { name: "DJI".into() }
        );
        assert!(parse("about ").is_err());
    }

    #[test]
    fn why_arrow_and_nl() {
        let q = parse("WHY Apex Robotics -> Condor Labs VIA acquired LIMIT 2").unwrap();
        assert_eq!(
            q,
            Query::Why {
                source: "Apex Robotics".into(),
                target: "Condor Labs".into(),
                via: Some("acquired".into()),
                limit: 2,
            }
        );
        let q2 = parse("why is Windermere related to Apex Robotics?").unwrap();
        assert_eq!(
            q2,
            Query::Why {
                source: "Windermere".into(),
                target: "Apex Robotics".into(),
                via: None,
                limit: 10,
            }
        );
    }

    #[test]
    fn match_with_types_constants_and_wildcards() {
        let q = parse("MATCH (Company)-[acquired]->(Company) LIMIT 5").unwrap();
        assert_eq!(
            q,
            Query::Match {
                src: Endpoint::Type("Company".into()),
                predicate: "acquired".into(),
                dst: Endpoint::Type("Company".into()),
                limit: 5,
                since: None,
                until: None,
            }
        );
        let q2 = parse("MATCH (*)-[manufactures]->(\"Phantom 4\")").unwrap();
        assert_eq!(
            q2,
            Query::Match {
                src: Endpoint::Any,
                predicate: "manufactures".into(),
                dst: Endpoint::Constant("Phantom 4".into()),
                limit: 10,
                since: None,
                until: None,
            }
        );
    }

    #[test]
    fn match_with_temporal_clauses() {
        let q =
            parse("MATCH (Company)-[acquired]->(Company) SINCE 1100 UNTIL 1500 LIMIT 5").unwrap();
        let Query::Match {
            since,
            until,
            limit,
            ..
        } = q
        else {
            panic!("{q:?}")
        };
        assert_eq!(since, Some(1100));
        assert_eq!(until, Some(1500));
        assert_eq!(limit, 5);
        let q2 = parse("MATCH (*)-[deploys]->(*) SINCE 1700").unwrap();
        let Query::Match { since, until, .. } = q2 else {
            panic!()
        };
        assert_eq!(since, Some(1700));
        assert_eq!(until, None);
        assert!(parse("MATCH (A)-[p]->(B) SINCE soon").is_err());
    }

    #[test]
    fn paths_with_max() {
        let q = parse("PATHS Apex Robotics TO Condor Labs MAX 3 LIMIT 4").unwrap();
        assert_eq!(
            q,
            Query::Paths {
                source: "Apex Robotics".into(),
                target: "Condor Labs".into(),
                max_hops: 3,
                limit: 4,
            }
        );
        let q2 = parse("paths A to B").unwrap();
        assert_eq!(
            q2,
            Query::Paths {
                source: "A".into(),
                target: "B".into(),
                max_hops: 4,
                limit: 10
            }
        );
    }

    #[test]
    fn errors_are_informative() {
        assert!(parse("").is_err());
        assert!(parse("FOO bar").unwrap_err().0.contains("unrecognised"));
        assert!(parse("MATCH Company-acquired->Company").is_err());
        assert!(parse("WHY just one entity").is_err());
        assert!(parse("PATHS A MAX x TO B").is_err());
    }

    #[test]
    fn limit_is_clamped_to_one() {
        // LIMIT 0 silently becomes 1 (a query that returns nothing by
        // construction is never what the analyst meant).
        assert_eq!(
            parse("TRENDING LIMIT 0").unwrap(),
            Query::Trending { limit: 1 }
        );
    }

    #[test]
    fn unicode_entities_parse_without_panicking() {
        // "İ" is one char (2 bytes) whose Unicode lowercase is TWO chars
        // ("i" + combining dot): any helper that computes offsets on a
        // lowercased copy slices the original mid-character and panics.
        let q = parse("WHY İstanbul -> Ankara LIMIT 3").unwrap();
        assert_eq!(
            q,
            Query::Why {
                source: "İstanbul".into(),
                target: "Ankara".into(),
                via: None,
                limit: 3,
            }
        );
        assert_eq!(
            parse("ABOUT Łódź").unwrap(),
            Query::Entity {
                name: "Łódź".into()
            }
        );
        assert_eq!(
            parse("paths İzmir to Ağrı max 2").unwrap(),
            Query::Paths {
                source: "İzmir".into(),
                target: "Ağrı".into(),
                max_hops: 2,
                limit: 10,
            }
        );
        // Arbitrary non-ASCII junk must error, not panic.
        assert!(parse("ﬀİß中🦀").is_err());
        assert!(parse("whyİstanbul").is_err());
    }

    #[test]
    fn limit_only_strips_a_trailing_clause() {
        // Interior " limit " is entity text, not a clause.
        assert_eq!(
            parse("ABOUT No Limit Records").unwrap(),
            Query::Entity {
                name: "No Limit Records".into()
            }
        );
        // A trailing LIMIT with a non-numeric argument is not a clause.
        assert_eq!(
            parse("ABOUT limit breaks").unwrap(),
            Query::Entity {
                name: "limit breaks".into()
            }
        );
        // Trailing clause still strips even with an interior decoy.
        assert_eq!(
            parse("ABOUT No Limit Records LIMIT 4").unwrap(),
            Query::Entity {
                name: "No Limit Records".into()
            }
        );
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert!(parse("TrEnDiNg").is_ok());
        assert!(parse("AbOuT DJI").is_ok());
        assert!(parse("pAtHs A tO B").is_ok());
    }
}
