//! Vulnerability Reproduction Tool (VRT).
//!
//! §IV-A: compiling an old vulnerable package fails on modern systems
//! because its dependency closure is gone; the VRT tool \[38\] rebuilds "old
//! Linux containers at any point in the past (2005–present) using the
//! Debian snapshot repository": give it a date, it finds the distribution
//! released just before that date and pins every package to the latest
//! version uploaded before the date.
//!
//! This module models that mechanism: a [`SnapshotRepo`] of releases and
//! dated package uploads, date-based resolution, and a vulnerability
//! database keyed on package versions — enough to reproduce the paper's
//! Heartbleed example (input `20140401` → Debian 7 "wheezy" with
//! `openssl 1.0.1e`, which is vulnerable).

use simnet::time::SimTime;

/// A distribution release.
#[derive(Debug, Clone, PartialEq)]
pub struct Release {
    pub name: String,
    pub version: String,
    pub released: SimTime,
}

/// A dated package upload.
#[derive(Debug, Clone, PartialEq)]
pub struct PackageUpload {
    pub package: String,
    pub version: String,
    pub uploaded: SimTime,
    /// Packages this version depends on (by name).
    pub depends: Vec<String>,
}

/// A resolved point-in-time system image description.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    pub date: SimTime,
    pub release: Release,
    /// `(package, version)` pins, including transitive dependencies.
    pub packages: Vec<(String, String)>,
}

impl Snapshot {
    /// The pinned version of a package, if present.
    pub fn version_of(&self, package: &str) -> Option<&str> {
        self.packages
            .iter()
            .find(|(p, _)| p == package)
            .map(|(_, v)| v.as_str())
    }
}

/// A known vulnerability affecting specific package versions.
#[derive(Debug, Clone, PartialEq)]
pub struct Vulnerability {
    /// CVE-style identifier.
    pub id: String,
    pub package: String,
    /// Exact affected versions (the paper's examples pin exact versions).
    pub affected_versions: Vec<String>,
    pub announced: SimTime,
    /// Human description (e.g. "Heartbleed").
    pub name: String,
}

/// The snapshot repository plus vulnerability database.
#[derive(Debug, Clone, Default)]
pub struct SnapshotRepo {
    releases: Vec<Release>,
    uploads: Vec<PackageUpload>,
    vulns: Vec<Vulnerability>,
}

/// Resolution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VrtError {
    /// No release predates the requested date.
    NoRelease,
    /// A requested package has no upload before the date.
    MissingPackage(String),
}

impl std::fmt::Display for VrtError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VrtError::NoRelease => write!(f, "no distribution release before requested date"),
            VrtError::MissingPackage(p) => write!(f, "no snapshot of package '{p}' before date"),
        }
    }
}

impl std::error::Error for VrtError {}

impl SnapshotRepo {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn add_release(&mut self, name: &str, version: &str, released: SimTime) -> &mut Self {
        self.releases.push(Release {
            name: name.to_string(),
            version: version.to_string(),
            released,
        });
        self
    }

    pub fn add_upload(
        &mut self,
        package: &str,
        version: &str,
        uploaded: SimTime,
        depends: &[&str],
    ) -> &mut Self {
        self.uploads.push(PackageUpload {
            package: package.to_string(),
            version: version.to_string(),
            uploaded,
            depends: depends.iter().map(|s| s.to_string()).collect(),
        });
        self
    }

    pub fn add_vulnerability(&mut self, v: Vulnerability) -> &mut Self {
        self.vulns.push(v);
        self
    }

    /// Latest upload of `package` strictly before `date`.
    fn latest_before(&self, package: &str, date: SimTime) -> Option<&PackageUpload> {
        self.uploads
            .iter()
            .filter(|u| u.package == package && u.uploaded < date)
            .max_by_key(|u| u.uploaded)
    }

    /// Resolve a snapshot for `date`, pinning `roots` and their transitive
    /// dependency closures.
    pub fn resolve(&self, date: SimTime, roots: &[&str]) -> Result<Snapshot, VrtError> {
        let release = self
            .releases
            .iter()
            .filter(|r| r.released <= date)
            .max_by_key(|r| r.released)
            .ok_or(VrtError::NoRelease)?
            .clone();
        let mut pinned: Vec<(String, String)> = Vec::new();
        let mut queue: Vec<String> = roots.iter().map(|s| s.to_string()).collect();
        while let Some(pkg) = queue.pop() {
            if pinned.iter().any(|(p, _)| *p == pkg) {
                continue;
            }
            let upload = self
                .latest_before(&pkg, date)
                .ok_or_else(|| VrtError::MissingPackage(pkg.clone()))?;
            pinned.push((pkg.clone(), upload.version.clone()));
            for dep in &upload.depends {
                queue.push(dep.clone());
            }
        }
        pinned.sort();
        Ok(Snapshot {
            date,
            release,
            packages: pinned,
        })
    }

    /// Vulnerabilities present in a snapshot.
    pub fn vulnerabilities_in<'a>(&'a self, snapshot: &'a Snapshot) -> Vec<&'a Vulnerability> {
        self.vulns
            .iter()
            .filter(|v| {
                snapshot
                    .version_of(&v.package)
                    .is_some_and(|ver| v.affected_versions.iter().any(|a| a == ver))
            })
            .collect()
    }

    /// A repository pre-loaded with the history needed for the paper's
    /// scenarios: Debian releases 2005–2017, openssl (Heartbleed window)
    /// and postgresql (the honeypot's vulnerable database).
    pub fn with_debian_history() -> SnapshotRepo {
        let mut repo = SnapshotRepo::new();
        let d = SimTime::from_date;
        repo.add_release("sarge", "3.1", d(2005, 6, 6))
            .add_release("etch", "4.0", d(2007, 4, 8))
            .add_release("lenny", "5.0", d(2009, 2, 14))
            .add_release("squeeze", "6.0", d(2011, 2, 6))
            .add_release("wheezy", "7", d(2013, 5, 4))
            .add_release("jessie", "8", d(2015, 4, 25))
            .add_release("stretch", "9", d(2017, 6, 17));
        // openssl: 1.0.1e is the wheezy-era Heartbleed-vulnerable build;
        // 1.0.1g (2014-04-07) is the fix.
        repo.add_upload("openssl", "0.9.8c", d(2006, 9, 5), &["libc6"])
            .add_upload("openssl", "1.0.1e", d(2013, 2, 11), &["libc6", "zlib1g"])
            .add_upload("openssl", "1.0.1f", d(2014, 1, 6), &["libc6", "zlib1g"])
            .add_upload("openssl", "1.0.1g", d(2014, 4, 7), &["libc6", "zlib1g"])
            .add_upload("libc6", "2.3.6", d(2005, 12, 1), &[])
            .add_upload("libc6", "2.13", d(2011, 1, 20), &[])
            .add_upload("libc6", "2.19", d(2014, 2, 8), &[])
            .add_upload("zlib1g", "1.2.7", d(2012, 5, 2), &[])
            .add_upload("zlib1g", "1.2.8", d(2013, 4, 30), &[]);
        // postgresql: 9.4.x before 9.4.22 lets our scenario's default-cred
        // + largeobject abuse work end-to-end.
        repo.add_upload("postgresql", "8.1.4", d(2006, 5, 27), &["libc6"])
            .add_upload("postgresql", "9.1.5", d(2012, 8, 17), &["libc6", "zlib1g"])
            .add_upload("postgresql", "9.4.21", d(2019, 2, 14), &["libc6", "zlib1g"])
            .add_upload("postgresql", "9.4.26", d(2020, 2, 13), &["libc6", "zlib1g"]);
        repo.add_vulnerability(Vulnerability {
            id: "CVE-2014-0160".into(),
            package: "openssl".into(),
            affected_versions: vec!["1.0.1e".into(), "1.0.1f".into()],
            announced: d(2014, 4, 7),
            name: "Heartbleed".into(),
        });
        repo.add_vulnerability(Vulnerability {
            id: "CVE-2019-9193".into(),
            package: "postgresql".into(),
            affected_versions: vec!["9.4.21".into()],
            announced: d(2019, 4, 2),
            name: "COPY FROM PROGRAM command execution".into(),
        });
        repo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbleed_example_resolves_as_in_paper() {
        // §IV-A: input 20140401 → distribution released just before the
        // date (wheezy) with the vulnerable openssl and its dependencies.
        let repo = SnapshotRepo::with_debian_history();
        let snap = repo
            .resolve(SimTime::from_date(2014, 4, 1), &["openssl"])
            .unwrap();
        assert_eq!(snap.release.name, "wheezy");
        assert_eq!(snap.version_of("openssl"), Some("1.0.1f"));
        // Transitive closure pinned too.
        assert!(snap.version_of("libc6").is_some());
        assert!(snap.version_of("zlib1g").is_some());
        let vulns = repo.vulnerabilities_in(&snap);
        assert!(vulns.iter().any(|v| v.name == "Heartbleed"));
    }

    #[test]
    fn post_fix_date_resolves_patched_version() {
        let repo = SnapshotRepo::with_debian_history();
        let snap = repo
            .resolve(SimTime::from_date(2014, 6, 1), &["openssl"])
            .unwrap();
        assert_eq!(snap.version_of("openssl"), Some("1.0.1g"));
        assert!(repo
            .vulnerabilities_in(&snap)
            .iter()
            .all(|v| v.name != "Heartbleed"));
    }

    #[test]
    fn old_date_resolves_old_stack() {
        let repo = SnapshotRepo::with_debian_history();
        let snap = repo
            .resolve(SimTime::from_date(2007, 1, 1), &["openssl"])
            .unwrap();
        assert_eq!(snap.release.name, "sarge");
        assert_eq!(snap.version_of("openssl"), Some("0.9.8c"));
    }

    #[test]
    fn missing_package_errors() {
        let repo = SnapshotRepo::with_debian_history();
        let err = repo
            .resolve(SimTime::from_date(2014, 4, 1), &["nonexistent"])
            .unwrap_err();
        assert_eq!(err, VrtError::MissingPackage("nonexistent".into()));
    }

    #[test]
    fn date_before_any_release_errors() {
        let repo = SnapshotRepo::with_debian_history();
        let err = repo
            .resolve(SimTime::from_date(2004, 1, 1), &["openssl"])
            .unwrap_err();
        assert_eq!(err, VrtError::NoRelease);
    }

    #[test]
    fn postgres_vulnerable_snapshot() {
        let repo = SnapshotRepo::with_debian_history();
        let snap = repo
            .resolve(SimTime::from_date(2019, 6, 1), &["postgresql"])
            .unwrap();
        assert_eq!(snap.version_of("postgresql"), Some("9.4.21"));
        assert!(repo
            .vulnerabilities_in(&snap)
            .iter()
            .any(|v| v.id == "CVE-2019-9193"));
        // A 2021 build gets the patched version.
        let snap2 = repo
            .resolve(SimTime::from_date(2021, 1, 1), &["postgresql"])
            .unwrap();
        assert_eq!(snap2.version_of("postgresql"), Some("9.4.26"));
        assert!(repo.vulnerabilities_in(&snap2).is_empty());
    }
}
