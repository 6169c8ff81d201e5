//! A tenant-scoped pipeline mints nothing into the global symbol table.
//!
//! The §V ransomware reaches PostgreSQL as three commands with a string
//! payload: an ELF prefix written to a large object, an `lo_export` path
//! and a `COPY FROM PROGRAM` command. The records carry each payload as a
//! symbol minted in the global scope; rescoping carries it into the
//! tenant's scope, and the symbolizer's alert message has to name it
//! there. This file holds a single test so it
//! runs in a process of its own: the global table is shared by every test
//! in a binary, and a neighbour interning concurrently would move its
//! length.
//!
//! The check covers the run only. The table length is read after
//! `build()`, because building still mints into the global table:
//! `Symbolizer::new` interns the configured ghost accounts and default DB
//! users there before the builder re-points it with `set_scope`.

use simnet::flow::FlowId;
use simnet::intern::SymScope;
use simnet::time::SimTime;
use simnet::topology::HostId;
use telemetry::record::{DbCommand, DbRecord, LogRecord};
use testbed::stage::PipelineBuilder;

#[test]
fn tenant_pipeline_interns_db_payloads_in_the_tenant_scope() {
    let global = SymScope::global();
    let db = |secs: u64, command: DbCommand| {
        LogRecord::Db(DbRecord {
            ts: SimTime::from_secs(secs),
            uid: FlowId(secs),
            orig_h: "111.200.1.1".parse().unwrap(),
            resp_h: "141.142.77.5".parse().unwrap(),
            host: Some(HostId(9)),
            user: global.sym("postgres"),
            command,
            statement: global.sym("select lo_from_bytea(0, $1)"),
        })
    };
    let records = [
        db(
            1,
            DbCommand::LargeObjectWrite {
                hex_prefix: global.sym("7F454C46020101000000000000000000"),
                bytes: 50_000,
            },
        ),
        db(
            2,
            DbCommand::LoExport {
                path: global.sym("/tmp/kp-tenant-payload"),
            },
        ),
        db(
            3,
            DbCommand::CopyFromProgram {
                program: global.sym("/tmp/kp-tenant-payload --daemon"),
            },
        ),
    ];
    let tenant = SymScope::fresh();
    let scoped: Vec<LogRecord> = records
        .iter()
        .map(|r| r.rescope(&global, &tenant))
        .collect();
    let pipeline = PipelineBuilder::new().scope(tenant.clone()).build();

    let global_len = global.len();
    let report = pipeline.run_inline(scoped);
    assert_eq!(
        global.len(),
        global_len,
        "the tenant run interned into the global table"
    );

    let rendered: Vec<String> = report
        .retained_alerts
        .iter()
        .map(|a| a.message.render(&tenant))
        .collect();
    assert_eq!(
        rendered,
        [
            "largeobject ELF payload (50000B) prefix=7F454C46020101000000000000000000",
            "lo_export to /tmp/kp-tenant-payload",
            "COPY FROM PROGRAM '/tmp/kp-tenant-payload --daemon'",
        ]
    );
}
