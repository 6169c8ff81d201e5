//! Log sanitization.
//!
//! §II-A: "Specific information (e.g., personal information or filename)
//! is sanitized while the log timestamp is kept." The paper prints
//! addresses as `64.215.xxx.yyy` — first two octets kept, the rest masked.
//! This module scrubs alert messages: IP addresses, email addresses, long
//! digit runs (IDs, SSNs, card numbers) and home-directory user names.

use serde::{Deserialize, Serialize};

/// What to scrub. All on by default.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SanitizeConfig {
    /// Mask the last two octets of IPv4 addresses (`a.b.xxx.yyy`).
    pub mask_ips: bool,
    /// Replace email addresses with `<email>`.
    pub mask_emails: bool,
    /// Replace digit runs of at least this length with `<num>`; 0 disables.
    pub mask_digit_runs: usize,
    /// Replace `/home/<name>` path components with `/home/<user>`.
    pub mask_home_dirs: bool,
}

impl Default for SanitizeConfig {
    fn default() -> Self {
        SanitizeConfig {
            mask_ips: true,
            mask_emails: true,
            mask_digit_runs: 6,
            mask_home_dirs: true,
        }
    }
}

/// Sanitize one message according to the config.
pub fn sanitize(cfg: &SanitizeConfig, input: &str) -> String {
    let mut s = input.to_string();
    if cfg.mask_ips {
        s = mask_ipv4(&s);
    }
    if cfg.mask_emails {
        s = mask_emails(&s);
    }
    if cfg.mask_digit_runs > 0 {
        s = mask_digit_runs(&s, cfg.mask_digit_runs);
    }
    if cfg.mask_home_dirs {
        s = mask_home_dirs(&s);
    }
    s
}

/// Detect whether a string still contains an email or a long digit run —
/// used by the PII-in-outbound-HTTP rule (a Critical alert in the paper).
pub fn contains_pii(input: &str) -> bool {
    find_email(input.as_bytes(), 0).is_some() || has_digit_run(input, 9)
}

fn is_octet(bytes: &[u8]) -> Option<(usize, u16)> {
    let mut val: u16 = 0;
    let mut len = 0;
    for &b in bytes.iter().take(3) {
        if b.is_ascii_digit() {
            val = val * 10 + (b - b'0') as u16;
            len += 1;
        } else {
            break;
        }
    }
    if len == 0 || val > 255 {
        None
    } else {
        Some((len, val))
    }
}

/// Mask `a.b.c.d` → `a.b.xxx.yyy` (paper format). Text between matches
/// is copied as `&str` slices, so non-ASCII characters survive intact.
fn mask_ipv4(input: &str) -> String {
    let bytes = input.as_bytes();
    let mut out = String::with_capacity(input.len());
    let mut copied = 0;
    let mut i = 0;
    'outer: while i < bytes.len() {
        // Try to parse an IPv4 literal starting at i, not preceded by a
        // digit or dot (so we do not match inside longer tokens).
        let boundary_ok = i == 0 || (!bytes[i - 1].is_ascii_digit() && bytes[i - 1] != b'.');
        if boundary_ok && bytes[i].is_ascii_digit() {
            let mut pos = i;
            let mut octets = 0;
            let mut first_two_end = 0;
            while octets < 4 {
                match is_octet(&bytes[pos..]) {
                    Some((len, _)) => {
                        pos += len;
                        octets += 1;
                        if octets == 2 {
                            first_two_end = pos;
                        }
                        if octets < 4 {
                            if pos < bytes.len() && bytes[pos] == b'.' {
                                pos += 1;
                            } else {
                                break;
                            }
                        }
                    }
                    None => break,
                }
            }
            let tail_ok =
                pos >= bytes.len() || (!bytes[pos].is_ascii_digit() && bytes[pos] != b'.');
            if octets == 4 && tail_ok {
                out.push_str(&input[copied..first_two_end]);
                out.push_str(".xxx.yyy");
                i = pos;
                copied = pos;
                continue 'outer;
            }
        }
        i += 1;
    }
    out.push_str(&input[copied..]);
    out
}

/// Find the byte range of an email address at or after `from`.
fn find_email(bytes: &[u8], from: usize) -> Option<(usize, usize)> {
    let is_local =
        |b: u8| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-' || b == b'+';
    let is_domain = |b: u8| b.is_ascii_alphanumeric() || b == b'.' || b == b'-';
    let mut i = from;
    while i < bytes.len() {
        if bytes[i] == b'@' {
            // Expand left over local-part chars.
            let mut start = i;
            while start > 0 && is_local(bytes[start - 1]) {
                start -= 1;
            }
            // Expand right over domain chars; require a dot in the domain.
            let mut end = i + 1;
            while end < bytes.len() && is_domain(bytes[end]) {
                end += 1;
            }
            let has_dot = bytes[i + 1..end].contains(&b'.');
            if start < i && end > i + 1 && has_dot {
                return Some((start, end));
            }
        }
        i += 1;
    }
    None
}

fn mask_emails(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    let bytes = input.as_bytes();
    let mut i = 0;
    while let Some((s, e)) = find_email(bytes, i) {
        out.push_str(&input[i..s]);
        out.push_str("<email>");
        i = e;
    }
    out.push_str(&input[i..]);
    out
}

fn has_digit_run(input: &str, min_len: usize) -> bool {
    let mut run = 0;
    for b in input.bytes() {
        if b.is_ascii_digit() {
            run += 1;
            if run >= min_len {
                return true;
            }
        } else {
            run = 0;
        }
    }
    false
}

/// Replace each run of at least `min_len` digits with `<num>`. A run an
/// ASCII letter touches on either side is part of a token such as a hex
/// string (`7F454C46020101…`, the ELF evidence in a DB blob) and is kept.
fn mask_digit_runs(input: &str, min_len: usize) -> String {
    let bytes = input.as_bytes();
    let mut out = String::with_capacity(input.len());
    let mut copied = 0;
    let mut i = 0;
    while i < bytes.len() {
        if !bytes[i].is_ascii_digit() {
            i += 1;
            continue;
        }
        let mut j = i;
        while j < bytes.len() && bytes[j].is_ascii_digit() {
            j += 1;
        }
        let letter_before = i > 0 && bytes[i - 1].is_ascii_alphabetic();
        let letter_after = j < bytes.len() && bytes[j].is_ascii_alphabetic();
        if j - i >= min_len && !letter_before && !letter_after {
            out.push_str(&input[copied..i]);
            out.push_str("<num>");
            copied = j;
        }
        i = j;
    }
    out.push_str(&input[copied..]);
    out
}

fn mask_home_dirs(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    let mut rest = input;
    while let Some(pos) = rest.find("/home/") {
        let after = &rest[pos + 6..];
        let name_len = after
            .char_indices()
            .find(|(_, c)| !(c.is_alphanumeric() || *c == '_' || *c == '-'))
            .map(|(i, _)| i)
            .unwrap_or(after.len());
        if name_len > 0 {
            out.push_str(&rest[..pos]);
            out.push_str("/home/<user>");
            rest = &after[name_len..];
        } else {
            out.push_str(&rest[..pos + 6]);
            rest = after;
        }
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrub(s: &str) -> String {
        sanitize(&SanitizeConfig::default(), s)
    }

    #[test]
    fn ip_masking_matches_paper_format() {
        assert_eq!(scrub("wget 64.215.4.5/abs.c"), "wget 64.215.xxx.yyy/abs.c");
        assert_eq!(
            scrub("from 111.200.8.77 connecting"),
            "from 111.200.xxx.yyy connecting"
        );
    }

    #[test]
    fn non_ips_left_alone() {
        assert_eq!(scrub("version 1.2.3"), "version 1.2.3");
        assert_eq!(scrub("300.1.1.1"), "300.1.1.1"); // 300 is not an octet
        assert_eq!(scrub("1.2.3.4.5"), "1.2.3.4.5"); // five components: not IPv4
    }

    #[test]
    fn timestamp_kept() {
        // §II-A: "the log timestamp is kept". Short digit runs survive.
        assert_eq!(scrub("23:15:22 event"), "23:15:22 event");
    }

    #[test]
    fn email_masked() {
        assert_eq!(
            scrub("contact alice.b@example.edu now"),
            "contact <email> now"
        );
        assert_eq!(scrub("no at sign here"), "no at sign here");
        assert_eq!(scrub("not@nodots"), "not@nodots");
    }

    #[test]
    fn long_digit_runs_masked() {
        assert_eq!(scrub("ssn 123456789 leaked"), "ssn <num> leaked");
        assert_eq!(scrub("pid 7036 ok"), "pid 7036 ok");
    }

    #[test]
    fn non_ascii_text_survives() {
        assert_eq!(
            scrub("cat /home/josé/résumé.pdf"),
            "cat /home/<user>/résumé.pdf"
        );
        assert_eq!(
            scrub("héllo 10.1.2.3 ünïcode 1234567"),
            "héllo 10.1.xxx.yyy ünïcode <num>"
        );
    }

    #[test]
    fn hex_tokens_keep_their_digits() {
        assert_eq!(
            scrub("prefix=7F454C46020101000000"),
            "prefix=7F454C46020101000000"
        );
        assert_eq!(
            scrub("ssn=123456789 id 123456789a"),
            "ssn=<num> id 123456789a"
        );
    }

    #[test]
    fn home_dirs_masked() {
        assert_eq!(scrub("/home/alice/.ssh/id_rsa"), "/home/<user>/.ssh/id_rsa");
        assert_eq!(scrub("cat /home/bob-2/notes"), "cat /home/<user>/notes");
    }

    #[test]
    fn pii_detection() {
        assert!(contains_pii("user=x@y.com"));
        assert!(contains_pii("card 4111111111111111"));
        assert!(!contains_pii("GET /index.html"));
    }

    #[test]
    fn config_toggles() {
        let cfg = SanitizeConfig {
            mask_ips: false,
            ..Default::default()
        };
        assert_eq!(sanitize(&cfg, "64.215.4.5"), "64.215.4.5");
        let cfg = SanitizeConfig {
            mask_digit_runs: 0,
            ..Default::default()
        };
        assert_eq!(sanitize(&cfg, "123456789"), "123456789");
    }
}
