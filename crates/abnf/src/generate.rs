//! Random sample generation from an ABNF grammar.
//!
//! Generating strings *from* the message-format definition is one half of
//! the paper's "automatic construction of behavioural test cases" (§2.3):
//! syntactically valid inputs come from the grammar, behavioural sequences
//! from the state machine (see `netdsl-verify::testgen`).

use rand::Rng;

use crate::ast::{Element, Grammar};
use crate::error::AbnfError;

/// Limits applied during generation so that recursive grammars terminate.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Maximum rule-expansion depth before generation aborts.
    pub max_depth: usize,
    /// Cap substituted for unbounded repetition (`*` → at most this many).
    pub star_cap: u32,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_depth: 64,
            star_cap: 8,
        }
    }
}

/// Generates one random byte string matching rule `name`.
///
/// # Errors
///
/// * [`AbnfError::UndefinedRule`] if `name` does not resolve;
/// * [`AbnfError::DepthExceeded`] if the grammar recurses past
///   [`GenConfig::max_depth`] (every branch is recursive).
pub fn generate<R: Rng + ?Sized>(
    grammar: &Grammar,
    name: &str,
    rng: &mut R,
    config: GenConfig,
) -> Result<Vec<u8>, AbnfError> {
    let rule = grammar.rule(name).ok_or_else(|| AbnfError::UndefinedRule {
        name: name.to_ascii_lowercase(),
    })?;
    let mut out = Vec::new();
    gen_element(grammar, &rule.element, rng, config, 0, &mut out).map_err(|_| {
        AbnfError::DepthExceeded {
            rule: name.to_ascii_lowercase(),
        }
    })?;
    Ok(out)
}

/// Internal marker: depth exceeded (converted to a public error above).
struct Deep;

fn gen_element<R: Rng + ?Sized>(
    grammar: &Grammar,
    element: &Element,
    rng: &mut R,
    config: GenConfig,
    depth: usize,
    out: &mut Vec<u8>,
) -> Result<(), Deep> {
    if depth > config.max_depth {
        return Err(Deep);
    }
    match element {
        Element::RuleRef(name) => match grammar.rule(name) {
            Some(rule) => {
                let elem = rule.element.clone();
                gen_element(grammar, &elem, rng, config, depth + 1, out)
            }
            None => Err(Deep),
        },
        Element::Concat(es) => {
            for e in es {
                gen_element(grammar, e, rng, config, depth + 1, out)?;
            }
            Ok(())
        }
        Element::Alt(es) => {
            // Prefer shallower derivations near the depth limit: try a
            // random order, accept the first alternative that succeeds.
            let mut order: Vec<usize> = (0..es.len()).collect();
            for i in (1..order.len()).rev() {
                order.swap(i, rng.random_range(0..=i));
            }
            let checkpoint = out.len();
            for idx in order {
                match gen_element(grammar, &es[idx], rng, config, depth + 1, out) {
                    Ok(()) => return Ok(()),
                    Err(Deep) => out.truncate(checkpoint),
                }
            }
            Err(Deep)
        }
        Element::Repeat(rep, inner) => {
            let max = rep
                .max
                .unwrap_or_else(|| rep.min.saturating_add(config.star_cap));
            let n = if rep.min >= max {
                rep.min
            } else {
                rng.random_range(rep.min..=max)
            };
            for _ in 0..n {
                gen_element(grammar, inner, rng, config, depth + 1, out)?;
            }
            Ok(())
        }
        Element::Optional(inner) => {
            if rng.random_bool(0.5) {
                let checkpoint = out.len();
                if gen_element(grammar, inner, rng, config, depth + 1, out).is_err() {
                    out.truncate(checkpoint);
                }
            }
            Ok(())
        }
        Element::CharVal(s) => {
            // Case-insensitive literal: pick a random casing to exercise
            // receiver case handling.
            for ch in s.chars() {
                let flipped = if ch.is_ascii_alphabetic() && rng.random_bool(0.5) {
                    (ch as u8) ^ 0x20
                } else {
                    ch as u8
                };
                out.push(flipped);
            }
            Ok(())
        }
        Element::CharValSensitive(s) => {
            out.extend_from_slice(s.as_bytes());
            Ok(())
        }
        Element::NumVal(bytes) => {
            out.extend_from_slice(bytes);
            Ok(())
        }
        Element::Range(lo, hi) => {
            out.push(rng.random_range(*lo..=*hi));
            Ok(())
        }
        Element::Prose(_) => Err(Deep),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Grammar;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    /// The fundamental generator law: everything generated matches.
    #[test]
    fn generated_strings_match_their_rule() {
        let g = Grammar::parse(
            "msg = verb SP path CRLF\n\
             verb = \"GET\" / \"PUT\" / \"DEL\"\n\
             path = \"/\" *(ALPHA / DIGIT / \"/\")\n",
        )
        .unwrap();
        let mut r = rng();
        for _ in 0..200 {
            let s = generate(&g, "msg", &mut r, GenConfig::default()).unwrap();
            assert!(
                g.matches("msg", &s).unwrap(),
                "generated {:?} does not match",
                String::from_utf8_lossy(&s)
            );
        }
    }

    #[test]
    fn generation_respects_repeat_bounds() {
        let g = Grammar::parse("r = 2*4\"x\"\n").unwrap();
        let mut r = rng();
        for _ in 0..100 {
            let s = generate(&g, "r", &mut r, GenConfig::default()).unwrap();
            assert!(
                (2..=4).contains(&s.len()),
                "length {} out of bounds",
                s.len()
            );
        }
    }

    #[test]
    fn unbounded_star_capped() {
        let g = Grammar::parse("r = *\"x\"\n").unwrap();
        let mut r = rng();
        let config = GenConfig {
            star_cap: 3,
            ..GenConfig::default()
        };
        for _ in 0..100 {
            let s = generate(&g, "r", &mut r, config).unwrap();
            assert!(s.len() <= 3);
        }
    }

    #[test]
    fn recursive_grammar_terminates_via_alternation() {
        // expr recurses but has a terminal alternative.
        let g = Grammar::parse("expr = DIGIT / \"(\" expr \"+\" expr \")\"\n").unwrap();
        let mut r = rng();
        for _ in 0..100 {
            let s = generate(&g, "expr", &mut r, GenConfig::default()).unwrap();
            assert!(g.matches("expr", &s).unwrap());
        }
    }

    #[test]
    fn hopeless_recursion_errors() {
        let g = Grammar::parse("loop = \"x\" loop\n").unwrap();
        let mut r = rng();
        assert!(matches!(
            generate(&g, "loop", &mut r, GenConfig::default()),
            Err(AbnfError::DepthExceeded { .. })
        ));
    }

    #[test]
    fn undefined_rule_errors() {
        let g = Grammar::new();
        let mut r = rng();
        assert!(matches!(
            generate(&g, "nope", &mut r, GenConfig::default()),
            Err(AbnfError::UndefinedRule { .. })
        ));
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let g = Grammar::parse("r = 1*8(ALPHA / DIGIT)\n").unwrap();
        let a = generate(&g, "r", &mut StdRng::seed_from_u64(7), GenConfig::default()).unwrap();
        let b = generate(&g, "r", &mut StdRng::seed_from_u64(7), GenConfig::default()).unwrap();
        assert_eq!(a, b);
    }
}
