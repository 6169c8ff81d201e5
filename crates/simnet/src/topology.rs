//! Cluster and network topology.
//!
//! Models the environment of §III–§IV: an open-networked HPC center with
//! login nodes, compute nodes, storage, a honeynet segment carved out of the
//! production /16, and the external Internet. Hosts are cheap handles
//! (`HostId`) into a flat arena; the scenario generators and the honeynet
//! deployment both build on this.

use std::fmt;
use std::net::Ipv4Addr;

use crate::addr::Cidr;
use crate::rng::FxHashMap;

/// Index of a host in a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HostId(pub u32);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}", self.0)
    }
}

/// Security zone a subnet belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Zone {
    /// Production internal network (the /16).
    Internal,
    /// The honeynet segment embedded in production (§IV-C).
    Honeynet,
    /// Out-of-band management/monitoring network.
    Management,
    /// The public Internet.
    External,
}

/// Functional role of a host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostRole {
    /// SSH login node users enter through.
    Login,
    /// Batch compute node.
    Compute,
    /// Shared storage server.
    Storage,
    /// Database server (e.g. the PostgreSQL honeypot target).
    Database,
    /// Honeynet entry-point VM forwarding traffic into containers.
    EntryPoint,
    /// Security monitor (Zeek cluster member, log collector).
    Monitor,
    /// Staff workstation.
    Workstation,
    /// A host on the public Internet.
    External,
}

/// A host (physical node, VM, or container endpoint).
#[derive(Debug, Clone)]
pub struct Host {
    pub id: HostId,
    pub name: String,
    pub addr: Ipv4Addr,
    pub zone: Zone,
    pub role: HostRole,
    /// Whether a kernel-level host monitor (osquery-like) runs here.
    pub monitored: bool,
}

/// A named subnet.
#[derive(Debug, Clone)]
pub struct Subnet {
    pub name: String,
    pub cidr: Cidr,
    pub zone: Zone,
}

/// The full topology: subnets plus a host arena with an address index.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    hosts: Vec<Host>,
    subnets: Vec<Subnet>,
    by_addr: FxHashMap<Ipv4Addr, HostId>,
}

impl Topology {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a subnet. Returns its index.
    pub fn add_subnet(&mut self, name: impl Into<String>, cidr: Cidr, zone: Zone) -> usize {
        self.subnets.push(Subnet {
            name: name.into(),
            cidr,
            zone,
        });
        self.subnets.len() - 1
    }

    /// Register a host.
    ///
    /// # Panics
    /// Panics if the address is already taken.
    pub fn add_host(
        &mut self,
        name: impl Into<String>,
        addr: Ipv4Addr,
        zone: Zone,
        role: HostRole,
    ) -> HostId {
        assert!(
            !self.by_addr.contains_key(&addr),
            "duplicate host address {addr}"
        );
        let id = HostId(self.hosts.len() as u32);
        let monitored = !matches!(zone, Zone::External);
        self.hosts.push(Host {
            id,
            name: name.into(),
            addr,
            zone,
            role,
            monitored,
        });
        self.by_addr.insert(addr, id);
        id
    }

    /// Convenience: register an external (Internet) host.
    pub fn add_external(&mut self, name: impl Into<String>, addr: Ipv4Addr) -> HostId {
        self.add_host(name, addr, Zone::External, HostRole::External)
    }

    pub fn host(&self, id: HostId) -> &Host {
        &self.hosts[id.0 as usize]
    }

    pub fn host_mut(&mut self, id: HostId) -> &mut Host {
        &mut self.hosts[id.0 as usize]
    }

    /// Look up a host by address.
    pub fn host_by_addr(&self, addr: Ipv4Addr) -> Option<&Host> {
        self.by_addr.get(&addr).map(|id| self.host(*id))
    }

    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    pub fn subnets(&self) -> &[Subnet] {
        &self.subnets
    }

    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// The zone an arbitrary address falls in: the zone of the first subnet
    /// containing it, else `External`.
    pub fn zone_of_addr(&self, addr: Ipv4Addr) -> Zone {
        // Most-specific (longest-prefix) subnet wins, so the honeynet /24
        // inside the production /16 classifies correctly.
        self.subnets
            .iter()
            .filter(|s| s.cidr.contains(addr))
            .max_by_key(|s| s.cidr.prefix())
            .map(|s| s.zone)
            .unwrap_or(Zone::External)
    }

    /// Iterate hosts with a given role.
    pub fn hosts_with_role(&self, role: HostRole) -> impl Iterator<Item = &Host> {
        self.hosts.iter().filter(move |h| h.role == role)
    }
}

/// Builder producing an NCSA-like topology: production /16 with login,
/// compute, storage and database nodes, a honeynet /24, a management net,
/// and a pool of external hosts.
#[derive(Debug, Clone)]
pub struct NcsaTopologyBuilder {
    pub production: Cidr,
    pub honeynet_octet: u64,
    pub login_nodes: u32,
    pub compute_nodes: u32,
    pub storage_nodes: u32,
    pub database_nodes: u32,
    pub workstations: u32,
}

impl Default for NcsaTopologyBuilder {
    fn default() -> Self {
        NcsaTopologyBuilder {
            production: crate::addr::ncsa_production(),
            honeynet_octet: 77,
            login_nodes: 4,
            compute_nodes: 64,
            storage_nodes: 8,
            database_nodes: 4,
            workstations: 16,
        }
    }
}

impl NcsaTopologyBuilder {
    /// Materialize the topology. Host addressing is deterministic:
    /// `.1.x` login, `.2.x` compute (wrapping to further /24s), `.3.x`
    /// storage, `.4.x` databases, `.5.x` workstations, honeynet on its own
    /// /24.
    pub fn build(&self) -> Topology {
        let mut topo = Topology::new();
        topo.add_subnet("production", self.production, Zone::Internal);
        let honeynet = self.production.subblock(self.honeynet_octet, 24);
        topo.add_subnet("honeynet", honeynet, Zone::Honeynet);
        let mgmt: Cidr = "192.168.100.0/24".parse().expect("static CIDR");
        topo.add_subnet("management", mgmt, Zone::Management);

        // 253 usable hosts per /24 slice; overflow rolls into the next
        // third octet.
        let add_range = |topo: &mut Topology, octet3: u64, count: u32, prefix: &str, role| {
            for i in 0..count {
                let sub = self.production.subblock(octet3 + (i / 253) as u64, 24);
                let addr = sub.nth((i % 253) as u64 + 1);
                topo.add_host(format!("{prefix}{:02}", i + 1), addr, Zone::Internal, role);
            }
        };
        add_range(&mut topo, 1, self.login_nodes, "login", HostRole::Login);
        add_range(&mut topo, 2, self.compute_nodes, "cn", HostRole::Compute);
        add_range(
            &mut topo,
            10,
            self.storage_nodes,
            "store",
            HostRole::Storage,
        );
        add_range(&mut topo, 11, self.database_nodes, "db", HostRole::Database);
        add_range(
            &mut topo,
            12,
            self.workstations,
            "ws",
            HostRole::Workstation,
        );

        // Zeek cluster / collector on the management net.
        topo.add_host("zeek-mgr", mgmt.nth(2), Zone::Management, HostRole::Monitor);
        topo.add_host(
            "log-collector",
            mgmt.nth(3),
            Zone::Management,
            HostRole::Monitor,
        );
        topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_expected_counts() {
        let b = NcsaTopologyBuilder::default();
        let t = b.build();
        let logins = t.hosts_with_role(HostRole::Login).count();
        let computes = t.hosts_with_role(HostRole::Compute).count();
        assert_eq!(logins, 4);
        assert_eq!(computes, 64);
        assert_eq!(t.subnets().len(), 3);
    }

    #[test]
    fn zone_of_addr_prefers_most_specific() {
        let t = NcsaTopologyBuilder::default().build();
        // Honeynet /24 sits inside the production /16.
        let hn_addr = crate::addr::ncsa_production().subblock(77, 24).nth(10);
        assert_eq!(t.zone_of_addr(hn_addr), Zone::Honeynet);
        let prod_addr = crate::addr::ncsa_production().subblock(2, 24).nth(10);
        assert_eq!(t.zone_of_addr(prod_addr), Zone::Internal);
        assert_eq!(t.zone_of_addr("8.8.8.8".parse().unwrap()), Zone::External);
    }

    #[test]
    fn duplicate_addr_panics() {
        let mut t = Topology::new();
        let a: Ipv4Addr = "10.0.0.1".parse().unwrap();
        t.add_host("a", a, Zone::Internal, HostRole::Compute);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.add_host("b", a, Zone::Internal, HostRole::Compute);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn host_lookup_by_addr() {
        let t = NcsaTopologyBuilder::default().build();
        let login = t.hosts_with_role(HostRole::Login).next().unwrap();
        assert_eq!(t.host_by_addr(login.addr).unwrap().id, login.id);
    }

    #[test]
    fn external_hosts_unmonitored() {
        let mut t = Topology::new();
        let id = t.add_external("scanner", "103.102.8.9".parse().unwrap());
        assert!(!t.host(id).monitored);
        assert_eq!(t.host(id).zone, Zone::External);
    }
}
