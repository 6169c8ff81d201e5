//! Minimal glob-style pattern matching.
//!
//! The symbolization rules match command lines and paths with `*`-wildcard
//! patterns (e.g. `wget *`, `*/.ssh/authorized_keys`). A hand-rolled
//! matcher keeps the hot alert path free of regex machinery; matching is
//! O(n·m) worst case with the classic two-pointer backtracking algorithm
//! and allocation-free.

/// A compiled wildcard pattern. `*` matches any (possibly empty) substring;
/// every other byte matches itself, case-sensitively.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pattern {
    raw: String,
}

impl Pattern {
    pub fn new(pattern: impl Into<String>) -> Pattern {
        Pattern {
            raw: pattern.into(),
        }
    }

    /// The raw pattern text.
    pub fn as_str(&self) -> &str {
        &self.raw
    }

    /// Whether the pattern matches the whole of `text`.
    pub fn matches(&self, text: &str) -> bool {
        glob_match(&self.raw, text)
    }
}

/// Match `pattern` (with `*` wildcards) against all of `text`.
pub fn glob_match(pattern: &str, text: &str) -> bool {
    let p = pattern.as_bytes();
    let t = text.as_bytes();
    let (mut pi, mut ti) = (0usize, 0usize);
    // Position of the last `*` seen and the text position it matched up to.
    let (mut star, mut mark) = (usize::MAX, 0usize);
    while ti < t.len() {
        if pi < p.len() && (p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == b'*' {
            star = pi;
            mark = ti;
            pi += 1;
        } else if star != usize::MAX {
            // Backtrack: let the last star consume one more byte.
            pi = star + 1;
            mark += 1;
            ti = mark;
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == b'*' {
        pi += 1;
    }
    pi == p.len()
}

/// Whether `text` matches any of the given patterns.
pub fn matches_any(patterns: &[Pattern], text: &str) -> bool {
    patterns.iter().any(|p| p.matches(text))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_match() {
        assert!(glob_match("wget", "wget"));
        assert!(!glob_match("wget", "wgetx"));
        assert!(!glob_match("wget", "wge"));
    }

    #[test]
    fn star_prefix_suffix_middle() {
        assert!(glob_match("wget *", "wget http://64.215.1.1/abs.c"));
        assert!(glob_match("*id_rsa*", "find / -name id_rsa -maxdepth 2"));
        assert!(glob_match("*.c", "/tmp/abs.c"));
        assert!(glob_match("echo 0>*", "echo 0>/var/log/wtmp"));
        assert!(!glob_match("wget *", "curl http://x"));
    }

    #[test]
    fn multiple_stars_backtrack() {
        assert!(glob_match("*a*b*c*", "xxaxxbxxcxx"));
        assert!(!glob_match("*a*b*c*", "xxaxxcxxbxx"));
        assert!(glob_match("a**b", "ab"));
        assert!(glob_match("**", ""));
    }

    #[test]
    fn empty_cases() {
        assert!(glob_match("", ""));
        assert!(!glob_match("", "x"));
        assert!(glob_match("*", ""));
        assert!(glob_match("*", "anything"));
    }

    #[test]
    fn adversarial_backtracking_terminates() {
        // The classic pathological case for naive recursive matchers.
        let text = "a".repeat(200);
        let pattern = format!("{}b", "*a".repeat(50));
        assert!(!glob_match(&pattern, &text));
    }

    #[test]
    fn pattern_wrapper() {
        let p = Pattern::new("insmod *");
        assert!(p.matches("insmod rootkit.ko"));
        assert_eq!(p.as_str(), "insmod *");
        assert!(matches_any(
            &[Pattern::new("a*"), Pattern::new("b*")],
            "beta"
        ));
        assert!(!matches_any(&[Pattern::new("a*")], "beta"));
    }
}
