//! The remote-replication extension (paper §4.5): "monitor all the
//! moves and feed them to an identical robot in a remote location" —
//! the monitoring aspect pointed at the `replicate.post` sink, plus the
//! host-side mirror that drives a second robot (optionally scaled).

use crate::monitoring;
use pmp_midas::ExtensionPackage;
use pmp_store::MovementRecord;
use pmp_vm::prelude::{Value, Vm, VmError};
use std::collections::BTreeMap;

/// Extension id.
pub const ID: &str = "ext/replication";

/// Builds the replication package: every motor action is posted to
/// `replicate.post`.
pub fn package(version: u32) -> ExtensionPackage {
    let mut pkg = monitoring::package_with_sink("replication", "replicate.post", version);
    pkg.meta.description =
        "mirrors every motor action to a replica robot via replicate.post".into();
    pkg
}

/// Host-side mirror: applies one recorded movement to a replica robot's
/// motor proxies, scaled by `num/den` and saturating at the `i64` bounds
/// (paper: replication "at a scale different from what is being done by
/// the original robot").
///
/// `motors` maps device names (`"motor:A"`) to `Motor` proxy objects in
/// the replica's VM.
///
/// # Errors
///
/// Any [`VmError`] from the replica's motor proxies.
///
/// # Panics
///
/// Panics if `den == 0`.
pub fn mirror_record(
    vm: &mut Vm,
    motors: &BTreeMap<String, Value>,
    record: &MovementRecord,
    num: i64,
    den: i64,
) -> Result<(), VmError> {
    assert!(den != 0, "scale denominator must be nonzero");
    let Some(motor) = motors.get(&record.device) else {
        return Ok(()); // device not present on the replica
    };
    match record.command.as_str() {
        "Motor.rotate" | "rotate" => {
            let deg = record
                .args
                .first()
                .map_or(0, |a| a.saturating_mul(num).saturating_div(den));
            vm.call("Motor", "rotate", motor.clone(), vec![Value::Int(deg)])?;
        }
        "Motor.setPower" | "setPower" => {
            let p = record.args.first().copied().unwrap_or(7);
            vm.call("Motor", "setPower", motor.clone(), vec![Value::Int(p)])?;
        }
        "Motor.stop" | "stop" => {
            vm.call("Motor", "stop", motor.clone(), vec![])?;
        }
        _ => {}
    }
    Ok(())
}

/// Replays a whole movement log onto a replica (see
/// [`mirror_record`]); returns how many records were applied.
///
/// # Errors
///
/// Any [`VmError`] from the replica's motor proxies.
pub fn mirror_log(
    vm: &mut Vm,
    motors: &BTreeMap<String, Value>,
    records: &[MovementRecord],
    num: i64,
    den: i64,
) -> Result<usize, VmError> {
    let mut applied = 0;
    for r in records {
        if motors.contains_key(&r.device) {
            mirror_record(vm, motors, r, num, den)?;
            applied += 1;
        }
    }
    Ok(applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_robot::{new_handle, register_robot_classes, spawn_motor, Port};
    use pmp_vm::prelude::*;

    fn replica() -> (Vm, pmp_robot::RobotHandle, BTreeMap<String, Value>) {
        let mut vm = Vm::new(VmConfig::default());
        let handle = new_handle();
        register_robot_classes(&mut vm, &handle).unwrap();
        let mut motors = BTreeMap::new();
        for port in Port::MOTORS {
            let m = spawn_motor(&mut vm, port).unwrap();
            motors.insert(format!("motor:{port}"), m);
        }
        (vm, handle, motors)
    }

    fn rec(device: &str, command: &str, arg: i64) -> MovementRecord {
        MovementRecord {
            robot: "robot:1:1".into(),
            device: device.into(),
            command: command.into(),
            args: vec![arg],
            issued_at: 0,
            duration_ns: 0,
        }
    }

    #[test]
    fn mirroring_reproduces_motor_positions() {
        let (mut vm, handle, motors) = replica();
        let log = vec![
            rec("motor:C", "Motor.rotate", 90),
            rec("motor:A", "Motor.rotate", 10),
            rec("motor:B", "Motor.rotate", 5),
        ];
        let applied = mirror_log(&mut vm, &motors, &log, 1, 1).unwrap();
        assert_eq!(applied, 3);
        assert_eq!(handle.lock().position(), (10, 5));
        assert!(handle.lock().is_pen_down());
    }

    #[test]
    fn scaled_mirroring_amplifies() {
        let (mut vm, handle, motors) = replica();
        mirror_record(&mut vm, &motors, &rec("motor:A", "Motor.rotate", 10), 3, 1).unwrap();
        assert_eq!(handle.lock().position(), (30, 0));
    }

    #[test]
    fn unknown_devices_are_skipped() {
        let (mut vm, handle, motors) = replica();
        let applied =
            mirror_log(&mut vm, &motors, &[rec("laser:Z", "fire", 1)], 1, 1).unwrap();
        assert_eq!(applied, 0);
        assert_eq!(handle.lock().position(), (0, 0));
    }
}
