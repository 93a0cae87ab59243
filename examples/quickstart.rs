//! Quickstart: the four buffer designs and what makes DAMQ different.
//!
//! Run with:
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use damq::buffers::FrontMeta;
use damq::prelude::*;
use damq::switch::CycleSink;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Four packets at one input port of a 4x4 switch: the first three are
    // routed to output 3 (currently busy downstream), the last to the idle
    // output 1.
    println!("== head-of-line blocking demo ==");
    let config = BufferConfig::new(4, 8); // 8 slots: 2 per queue when static
    for kind in BufferKind::ALL {
        let mut buf = config.build_any(kind)?;
        for i in 0..2 {
            let p = Packet::builder(NodeId::new(i), NodeId::new(30)).build();
            buf.try_enqueue(OutputPort::new(3), p)?;
        }
        let p = Packet::builder(NodeId::new(3), NodeId::new(10)).build();
        buf.try_enqueue(OutputPort::new(1), p)?;

        // Output 1 is idle: can this buffer serve it right now?
        let servable = buf.queue_len(OutputPort::new(1));
        println!(
            "{kind:>4}: packet for idle output 1 is {}",
            if servable > 0 {
                "TRANSMITTABLE (no HOL blocking)"
            } else {
                "stuck behind blocked packets (HOL blocking)"
            }
        );
    }

    // The storage-sharing difference between SAMQ and DAMQ.
    println!();
    println!("== dynamic vs static allocation demo ==");
    let burst_config = BufferConfig::new(4, 4); // the paper's 4-slot buffers
    let mut samq = SamqBuffer::new(burst_config)?;
    let mut damq = DamqBuffer::new(burst_config)?;
    // Four packets, all for output 2 (bursty traffic).
    for i in 0..4 {
        let p = || Packet::builder(NodeId::new(i), NodeId::new(42)).build();
        let samq_ok = samq.try_enqueue(OutputPort::new(2), p()).is_ok();
        let damq_ok = damq.try_enqueue(OutputPort::new(2), p()).is_ok();
        println!(
            "burst packet {i}: SAMQ {} | DAMQ {}",
            if samq_ok {
                "accepted"
            } else {
                "REJECTED (static queue full)"
            },
            if damq_ok { "accepted" } else { "rejected" },
        );
    }
    println!(
        "SAMQ wasted {} of its {} slots; DAMQ used all {}.",
        samq.free_slots(),
        samq.capacity_slots(),
        damq.used_slots(),
    );

    // A whole switch, one cycle at a time.
    println!();
    println!("== a 4x4 DAMQ switch in action ==");
    let mut sw = Switch::new(
        SwitchConfig::new(4)
            .buffer_kind(BufferKind::Damq)
            .slots_per_buffer(4)
            .arbiter_policy(ArbiterPolicy::Smart),
    )?;
    // Three packets arrive: two contend for output 0, one goes to output 2.
    sw.receive(
        InputPort::new(0),
        OutputPort::new(0),
        Packet::builder(NodeId::new(0), NodeId::new(0)).build(),
    )?;
    sw.receive(
        InputPort::new(1),
        OutputPort::new(0),
        Packet::builder(NodeId::new(1), NodeId::new(0)).build(),
    )?;
    sw.receive(
        InputPort::new(1),
        OutputPort::new(2),
        Packet::builder(NodeId::new(1), NodeId::new(2)).build(),
    )?;
    let mut printer = Printer { cycle: 0 };
    while sw.packets_resident() > 0 {
        printer.cycle += 1;
        sw.transmit_cycle_with(&mut printer);
    }
    println!("drained in {} cycles", printer.cycle);
    Ok(())
}

/// The host's side of a switch cycle: a discarding host lets every head
/// go, and this one prints each packet as it leaves.
struct Printer {
    cycle: u32,
}

impl CycleSink for Printer {
    fn can_send(&mut self, _output: OutputPort, _front: FrontMeta) -> bool {
        true
    }

    fn depart(&mut self, input: InputPort, output: OutputPort, packet: Packet) {
        println!("cycle {}: {input} -> {output} ({packet})", self.cycle);
    }
}
