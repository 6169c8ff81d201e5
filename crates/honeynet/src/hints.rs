//! Attacker attraction: leaked credential hints.
//!
//! §IV-B: "we attract attackers by publicly advertising default or
//! user-generated access credentials ... These 'hints' (credentials,
//! database URL, and path) are accidentally published online via various
//! channels such as social media or git. ... The use of unique
//! user-generated access credentials (keys) allows us to trace an
//! individual attacker's tactics."
//!
//! Each channel gets a *unique* secret, so when a secret shows up at the
//! honeypot, the deployment knows which leak the attacker read.

use simnet::rng::{FxHashMap, SimRng};

use crate::service::Credential;

/// Where a hint was planted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LeakChannel {
    Git,
    SocialMedia,
    Pastebin,
    FederatedIdentity,
}

impl LeakChannel {
    pub const ALL: [LeakChannel; 4] = [
        LeakChannel::Git,
        LeakChannel::SocialMedia,
        LeakChannel::Pastebin,
        LeakChannel::FederatedIdentity,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            LeakChannel::Git => "git",
            LeakChannel::SocialMedia => "social-media",
            LeakChannel::Pastebin => "pastebin",
            LeakChannel::FederatedIdentity => "federated-identity",
        }
    }
}

/// A planted hint.
#[derive(Debug, Clone, PartialEq)]
pub struct Hint {
    pub channel: LeakChannel,
    pub credential: Credential,
    /// The advertised endpoint, e.g. `postgresql://141.142.77.10:5432/science`.
    pub service_url: String,
}

/// Generates and tracks hints; attributes observed secrets to channels.
#[derive(Debug)]
pub struct HintPublisher {
    hints: Vec<Hint>,
    by_secret: FxHashMap<String, LeakChannel>,
}

impl HintPublisher {
    pub fn new() -> HintPublisher {
        HintPublisher {
            hints: Vec::new(),
            by_secret: FxHashMap::default(),
        }
    }

    /// Plant one unique credential per channel for a service URL. The
    /// secret embeds a per-channel random token so collisions across
    /// channels are (deterministically, per seed) impossible.
    pub fn plant_all(&mut self, rng: &mut SimRng, user: &str, service_url: &str) -> Vec<Hint> {
        LeakChannel::ALL
            .iter()
            .map(|&channel| self.plant(rng, channel, user, service_url))
            .collect()
    }

    /// Plant a hint on one channel.
    pub fn plant(
        &mut self,
        rng: &mut SimRng,
        channel: LeakChannel,
        user: &str,
        service_url: &str,
    ) -> Hint {
        let token = rng.range_u64(0, u64::MAX - 1);
        let secret = format!("{}-{}-{:016x}", user, channel.as_str(), token);
        let hint = Hint {
            channel,
            credential: Credential::new(user, secret.clone()),
            service_url: service_url.to_string(),
        };
        self.by_secret.insert(secret, channel);
        self.hints.push(hint.clone());
        hint
    }

    /// All planted hints.
    pub fn hints(&self) -> &[Hint] {
        &self.hints
    }

    /// Credentials to configure the honeypot services with.
    pub fn credentials(&self) -> Vec<Credential> {
        self.hints.iter().map(|h| h.credential.clone()).collect()
    }

    /// Attribute an observed secret to its leak channel — the tracing
    /// mechanism of §IV-B.
    pub fn attribute(&self, secret: &str) -> Option<LeakChannel> {
        self.by_secret.get(secret).copied()
    }
}

impl Default for HintPublisher {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_secret_per_channel() {
        let mut rng = SimRng::seed(7);
        let mut pub_ = HintPublisher::new();
        let hints = pub_.plant_all(&mut rng, "svcbackup", "postgresql://141.142.77.10:5432/x");
        assert_eq!(hints.len(), 4);
        let mut secrets: Vec<_> = hints.iter().map(|h| h.credential.secret.clone()).collect();
        secrets.sort();
        secrets.dedup();
        assert_eq!(secrets.len(), 4, "secrets must be channel-unique");
    }

    #[test]
    fn attribution_roundtrip() {
        let mut rng = SimRng::seed(8);
        let mut pub_ = HintPublisher::new();
        let git = pub_.plant(&mut rng, LeakChannel::Git, "svcbackup", "ssh://login01");
        let paste = pub_.plant(
            &mut rng,
            LeakChannel::Pastebin,
            "svcbackup",
            "ssh://login01",
        );
        assert_eq!(
            pub_.attribute(&git.credential.secret),
            Some(LeakChannel::Git)
        );
        assert_eq!(
            pub_.attribute(&paste.credential.secret),
            Some(LeakChannel::Pastebin)
        );
        assert_eq!(pub_.attribute("never-planted"), None);
    }

    #[test]
    fn deterministic_per_seed() {
        let plant = |seed| {
            let mut rng = SimRng::seed(seed);
            let mut p = HintPublisher::new();
            p.plant(&mut rng, LeakChannel::Git, "u", "url")
                .credential
                .secret
        };
        assert_eq!(plant(1), plant(1));
        assert_ne!(plant(1), plant(2));
    }

    #[test]
    fn credentials_configure_services() {
        let mut rng = SimRng::seed(9);
        let mut pub_ = HintPublisher::new();
        pub_.plant_all(&mut rng, "postgres", "postgresql://x");
        let creds = pub_.credentials();
        assert_eq!(creds.len(), 4);
        assert!(creds.iter().all(|c| c.user == "postgres"));
    }
}
