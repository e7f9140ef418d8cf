//! The simulation/replay application (paper §4.5): "if an accident or
//! failure occurs, one can replay a part of the sequence of movements
//! to see if the failure can be reproduced" — driving a robot's motor
//! proxies from the base station's movement store, preserving relative
//! time.

use pmp_store::{MovementRecord, MovementStore};
use pmp_vm::prelude::{Value, Vm, VmError};
use std::collections::BTreeMap;

/// One step of a replay plan: wait `delay_ns` (relative to the previous
/// step), then apply the record.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayStep {
    /// Delay since the previous step (ns).
    pub delay_ns: u64,
    /// The movement to re-issue.
    pub record: MovementRecord,
}

/// Builds a replay plan for `robot` from the store, preserving relative
/// time between commands.
pub fn plan(store: &MovementStore, robot: &str) -> Vec<ReplayStep> {
    store
        .replay(robot)
        .into_iter()
        .map(|(delay_ns, record)| ReplayStep { delay_ns, record })
        .collect()
}

/// Applies a replay plan immediately (ignoring delays) onto motor
/// proxies; returns the number of commands applied. For time-faithful
/// replay, the caller schedules each step `delay_ns` apart on the
/// simulator and calls [`apply_step`] per step.
///
/// # Errors
///
/// Any [`VmError`] from the motor proxies.
pub fn apply_plan(
    vm: &mut Vm,
    motors: &BTreeMap<String, Value>,
    steps: &[ReplayStep],
) -> Result<usize, VmError> {
    let mut applied = 0;
    for step in steps {
        if apply_step(vm, motors, step)? {
            applied += 1;
        }
    }
    Ok(applied)
}

/// Applies a single step; returns whether the device existed.
///
/// # Errors
///
/// Any [`VmError`] from the motor proxies.
pub fn apply_step(
    vm: &mut Vm,
    motors: &BTreeMap<String, Value>,
    step: &ReplayStep,
) -> Result<bool, VmError> {
    let Some(motor) = motors.get(&step.record.device) else {
        return Ok(false);
    };
    match step.record.command.as_str() {
        "Motor.rotate" | "rotate" => {
            let deg = step.record.args.first().copied().unwrap_or(0);
            vm.call("Motor", "rotate", motor.clone(), vec![Value::Int(deg)])?;
        }
        "Motor.setPower" | "setPower" => {
            let p = step.record.args.first().copied().unwrap_or(7);
            vm.call("Motor", "setPower", motor.clone(), vec![Value::Int(p)])?;
        }
        "Motor.stop" | "stop" => {
            vm.call("Motor", "stop", motor.clone(), vec![])?;
        }
        _ => return Ok(false),
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmp_robot::{new_handle, register_robot_classes, spawn_motor, Port};
    use pmp_vm::prelude::*;

    fn record(device: &str, arg: i64, at: u64) -> MovementRecord {
        MovementRecord {
            robot: "robot:1:1".into(),
            device: device.into(),
            command: "Motor.rotate".into(),
            args: vec![arg],
            issued_at: at,
            duration_ns: 10,
        }
    }

    #[test]
    fn plan_preserves_relative_time() {
        let mut store = MovementStore::new();
        store.append(record("motor:A", 10, 100));
        store.append(record("motor:B", 5, 400));
        let plan = plan(&store, "robot:1:1");
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].delay_ns, 0);
        assert_eq!(plan[1].delay_ns, 300);
    }

    #[test]
    fn applying_a_plan_reproduces_the_drawing_state() {
        let mut store = MovementStore::new();
        store.append(record("motor:C", 90, 0)); // pen down
        store.append(record("motor:A", 10, 10));
        store.append(record("motor:B", 5, 20));

        let mut vm = Vm::new(VmConfig::default());
        let handle = new_handle();
        register_robot_classes(&mut vm, &handle).unwrap();
        let mut motors = BTreeMap::new();
        for port in Port::MOTORS {
            motors.insert(format!("motor:{port}"), spawn_motor(&mut vm, port).unwrap());
        }
        let steps = plan(&store, "robot:1:1");
        let applied = apply_plan(&mut vm, &motors, &steps).unwrap();
        assert_eq!(applied, 3);
        assert_eq!(handle.lock().position(), (10, 5));
        assert_eq!(handle.lock().canvas().len(), 2, "replay redrew the strokes");
    }

    #[test]
    fn unknown_robot_plans_empty() {
        let store = MovementStore::new();
        assert!(plan(&store, "ghost").is_empty());
    }
}
