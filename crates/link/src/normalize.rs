//! Mention-surface normalisation applied before alias lookup.

/// The part of a raw mention surface that names the entity: leading
/// determiner, possessive marker and trailing sentence punctuation
/// stripped. Borrowed from `surface`; inner whitespace is untouched.
fn core_of(surface: &str) -> &str {
    let mut s = surface.trim();
    // Leading determiner.
    for det in ["the ", "The ", "a ", "A ", "an ", "An "] {
        if let Some(rest) = s.strip_prefix(det) {
            s = rest;
            break;
        }
    }
    let s = s.trim_end_matches(['.', ',', ';', ':', '!', '?']);
    let s = s
        .strip_suffix("'s")
        .or_else(|| s.strip_suffix("’s"))
        .unwrap_or(s);
    // Bare plural possessive ("Robotics'").
    s.trim_end_matches(['\'', '’'])
}

/// The words of `core`, single-spaced, each passed through `push_word`.
fn squeeze(core: &str, mut push_word: impl FnMut(&mut String, &str)) -> String {
    let mut out = String::with_capacity(core.len());
    for word in core.split_whitespace() {
        if !out.is_empty() {
            out.push(' ');
        }
        push_word(&mut out, word);
    }
    out
}

/// Normalise a raw mention surface for dictionary lookup: strip leading
/// determiners, possessive markers, trailing sentence punctuation and
/// squeeze whitespace. Case is preserved (the dictionary lowercases on its
/// side).
pub fn normalize_mention(surface: &str) -> String {
    squeeze(core_of(surface), |out, word| out.push_str(word))
}

/// The alias-dictionary key of a mention surface:
/// `normalize_mention(surface).to_lowercase()` built in one pass and one
/// allocation — every resolved mention pays for this.
pub(crate) fn alias_key(surface: &str) -> String {
    squeeze(core_of(surface), |out, word| {
        if word.is_ascii() {
            out.extend(word.bytes().map(|b| b.to_ascii_lowercase() as char));
        } else {
            // `str::to_lowercase` reads a word-final capital sigma by its
            // neighbours; a space ends that context, so lowering word by
            // word gives what lowering the joined string would.
            out.push_str(&word.to_lowercase());
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_determiners() {
        assert_eq!(normalize_mention("the Phantom 4"), "Phantom 4");
        assert_eq!(
            normalize_mention("The Wall Street Journal"),
            "Wall Street Journal"
        );
        assert_eq!(normalize_mention("an Apex drone"), "Apex drone");
    }

    #[test]
    fn strips_possessive_and_punct() {
        assert_eq!(normalize_mention("DJI's"), "DJI");
        assert_eq!(normalize_mention("Shenzhen."), "Shenzhen");
        assert_eq!(normalize_mention("Apex Robotics,"), "Apex Robotics");
    }

    #[test]
    fn squeezes_whitespace() {
        assert_eq!(normalize_mention("  Apex   Robotics "), "Apex Robotics");
    }

    #[test]
    fn leaves_clean_names_alone() {
        assert_eq!(normalize_mention("Apex Robotics"), "Apex Robotics");
        // Internal "the" survives.
        assert_eq!(normalize_mention("On the Horizon"), "On the Horizon");
    }

    #[test]
    fn alias_key_is_the_lowercased_normal_form() {
        for surface in [
            "the Apex   Robotics'",
            "  DJI's",
            "An ÉCOLE Polytechnique.",
            "ΟΔΟΣ ΑΣ Σ",
            "",
            "the",
        ] {
            assert_eq!(
                alias_key(surface),
                normalize_mention(surface).to_lowercase(),
                "{surface:?}"
            );
        }
    }

    #[test]
    fn empty_input() {
        assert_eq!(normalize_mention(""), "");
        assert_eq!(normalize_mention("the"), "the");
    }
}
