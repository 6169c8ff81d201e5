//! Container and VM lifecycle.
//!
//! §IV-C's containment strategy: honeypot services run in Linux containers
//! encapsulated in QEMU VMs with limited capabilities; instances are
//! launched from an **immutable image** and are **short-lived** — each is
//! destroyed and reprovisioned after collecting attack traces, bounding the
//! blast radius of a compromise.

use simnet::time::{SimDuration, SimTime};

use crate::vrt::Snapshot;

/// An immutable container image built by the VRT tool.
#[derive(Debug, Clone, PartialEq)]
pub struct ContainerImage {
    pub name: String,
    pub snapshot: Snapshot,
    /// Services baked into the image, as `(service, port)`.
    pub services: Vec<(String, u16)>,
}

/// Lifecycle state of an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceState {
    Provisioned,
    Running,
    /// Traces being collected after compromise or TTL expiry.
    Collecting,
    Destroyed,
}

/// A running container (inside its QEMU wrapper).
#[derive(Debug, Clone)]
pub struct Container {
    pub id: u64,
    pub image: String,
    pub state: InstanceState,
    pub started: SimTime,
    /// Maximum lifetime before forced recycling.
    pub ttl: SimDuration,
    /// Whether an attacker interacted with this instance.
    pub touched: bool,
    /// Collected trace count (commands observed).
    pub traces: u64,
}

impl Container {
    fn new(id: u64, image: &ContainerImage, now: SimTime, ttl: SimDuration) -> Container {
        Container {
            id,
            image: image.name.clone(),
            state: InstanceState::Running,
            started: now,
            ttl,
            touched: false,
            traces: 0,
        }
    }

    /// Whether the instance has outlived its TTL at `t`.
    pub fn expired(&self, t: SimTime) -> bool {
        t.saturating_since(self.started) >= self.ttl
    }

    /// Record attacker interaction.
    pub fn touch(&mut self) {
        self.touched = true;
        self.traces += 1;
    }
}

/// Pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    pub provisioned: u64,
    pub recycled: u64,
    pub traces_collected: u64,
}

/// An auto-scaling pool of short-lived instances of one image.
///
/// "Multiple instances of the database are scaled using Linux containers to
/// cast a wide net" (§IV-C).
#[derive(Debug)]
pub struct ContainerPool {
    image: ContainerImage,
    target_size: usize,
    ttl: SimDuration,
    instances: Vec<Container>,
    next_id: u64,
    stats: PoolStats,
}

impl ContainerPool {
    pub fn new(image: ContainerImage, target_size: usize, ttl: SimDuration, now: SimTime) -> Self {
        let mut pool = ContainerPool {
            image,
            target_size,
            ttl,
            instances: Vec::with_capacity(target_size),
            next_id: 0,
            stats: PoolStats::default(),
        };
        pool.scale_to_target(now);
        pool
    }

    fn scale_to_target(&mut self, now: SimTime) {
        while self.running_count() < self.target_size {
            let c = Container::new(self.next_id, &self.image, now, self.ttl);
            self.next_id += 1;
            self.stats.provisioned += 1;
            self.instances.push(c);
        }
    }

    /// Number of running instances.
    pub fn running_count(&self) -> usize {
        self.instances
            .iter()
            .filter(|c| c.state == InstanceState::Running)
            .count()
    }

    /// Borrow a running instance by index (round-robin by id).
    pub fn running_mut(&mut self) -> impl Iterator<Item = &mut Container> {
        self.instances
            .iter_mut()
            .filter(|c| c.state == InstanceState::Running)
    }

    /// Get a specific instance.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut Container> {
        self.instances.iter_mut().find(|c| c.id == id)
    }

    /// Periodic maintenance: recycle expired or compromised ("touched")
    /// instances — collect traces, destroy, reprovision from the immutable
    /// image — keeping the pool at target size.
    pub fn tick(&mut self, now: SimTime) -> usize {
        let mut recycled = 0;
        for c in &mut self.instances {
            if c.state == InstanceState::Running && (c.expired(now) || c.touched) {
                c.state = InstanceState::Collecting;
                self.stats.traces_collected += c.traces;
                c.state = InstanceState::Destroyed;
                self.stats.recycled += 1;
                recycled += 1;
            }
        }
        self.instances
            .retain(|c| c.state != InstanceState::Destroyed);
        self.scale_to_target(now);
        recycled
    }

    /// Grow or shrink the target size (auto-scaling to "simulate a
    /// distributed federation of databases").
    pub fn set_target_size(&mut self, target: usize, now: SimTime) {
        self.target_size = target;
        self.scale_to_target(now);
    }

    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    pub fn image(&self) -> &ContainerImage {
        &self.image
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vrt::SnapshotRepo;

    fn image() -> ContainerImage {
        let repo = SnapshotRepo::with_debian_history();
        let snapshot = repo
            .resolve(SimTime::from_date(2019, 6, 1), &["postgresql"])
            .unwrap();
        ContainerImage {
            name: "pg-honeypot".into(),
            snapshot,
            services: vec![("postgresql".into(), 5432)],
        }
    }

    #[test]
    fn pool_reaches_target() {
        let pool = ContainerPool::new(image(), 4, SimDuration::from_hours(6), SimTime::EPOCH);
        assert_eq!(pool.running_count(), 4);
        assert_eq!(pool.stats().provisioned, 4);
    }

    #[test]
    fn ttl_recycling_reprovisions() {
        let mut pool = ContainerPool::new(image(), 2, SimDuration::from_hours(1), SimTime::EPOCH);
        let recycled = pool.tick(SimTime::from_secs(3_601));
        assert_eq!(recycled, 2);
        assert_eq!(pool.running_count(), 2, "fresh instances provisioned");
        assert_eq!(pool.stats().recycled, 2);
        assert_eq!(pool.stats().provisioned, 4);
    }

    #[test]
    fn touched_instances_recycled_early() {
        let mut pool = ContainerPool::new(image(), 2, SimDuration::from_hours(6), SimTime::EPOCH);
        let id = pool.running_mut().next().unwrap().id;
        pool.get_mut(id).unwrap().touch();
        pool.get_mut(id).unwrap().touch();
        let recycled = pool.tick(SimTime::from_secs(10));
        assert_eq!(recycled, 1, "only the touched instance recycled");
        assert_eq!(pool.stats().traces_collected, 2);
        assert!(pool.get_mut(id).is_none(), "touched instance destroyed");
    }

    #[test]
    fn auto_scaling() {
        let mut pool = ContainerPool::new(image(), 2, SimDuration::from_hours(6), SimTime::EPOCH);
        pool.set_target_size(8, SimTime::from_secs(0));
        assert_eq!(pool.running_count(), 8);
        // Shrinking does not kill running instances (graceful drain would
        // be a policy decision); target only governs reprovisioning.
        pool.set_target_size(2, SimTime::from_secs(1));
        assert_eq!(pool.running_count(), 8);
    }

    #[test]
    fn image_is_immutable_across_recycles() {
        let mut pool = ContainerPool::new(image(), 1, SimDuration::from_hours(1), SimTime::EPOCH);
        let v0 = pool
            .image()
            .snapshot
            .version_of("postgresql")
            .unwrap()
            .to_string();
        pool.tick(SimTime::from_secs(7_200));
        assert_eq!(pool.image().snapshot.version_of("postgresql").unwrap(), v0);
    }
}
