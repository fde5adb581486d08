//! Discrete events: trigger, optional delay, assignments.

use sbml_math::MathExpr;
use sbml_xml::Element;

use crate::error::ModelError;
use crate::xmlutil::{opt_attr, read_list, req_attr, req_math_child, set_opt};

/// One variable update fired by an event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventAssignment {
    /// The updated variable id.
    pub variable: String,
    /// The new-value expression, evaluated at firing time.
    pub math: MathExpr,
}

impl EventAssignment {
    /// Read from `<eventAssignment>`.
    pub fn from_element(e: &Element<'_>) -> Result<Self, ModelError> {
        Ok(EventAssignment {
            variable: req_attr(e, "variable")?,
            math: req_math_child(e, "eventAssignment")?,
        })
    }

    /// Write to `<eventAssignment>`.
    pub fn to_element(&self) -> Element<'_> {
        Element::new("eventAssignment")
            .with_attr("variable", self.variable.as_str())
            .with_child(sbml_math::to_mathml(&self.math))
    }
}

/// A discrete event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Optional id (events may be anonymous in SBML; merging synthesises
    /// ids when needed).
    pub id: Option<String>,
    /// Optional display name.
    pub name: Option<String>,
    /// Boolean trigger expression (fires on false→true transition).
    pub trigger: MathExpr,
    /// Optional delay between trigger and assignment execution.
    pub delay: Option<MathExpr>,
    /// Assignments executed when the event fires.
    pub assignments: Vec<EventAssignment>,
}

impl Event {
    /// An event with the given trigger and no assignments.
    pub fn new(trigger: MathExpr) -> Event {
        Event { id: None, name: None, trigger, delay: None, assignments: Vec::new() }
    }

    /// Read from `<event>`.
    pub fn from_element(e: &Element<'_>) -> Result<Self, ModelError> {
        let trigger_el = e
            .child("trigger")
            .ok_or_else(|| ModelError::structure("event missing <trigger>"))?;
        let trigger = req_math_child(trigger_el, "event trigger")?;
        let delay = match e.child("delay") {
            Some(d) => Some(req_math_child(d, "event delay")?),
            None => None,
        };
        let assignments = read_list(
            e,
            "listOfEventAssignments",
            "eventAssignment",
            EventAssignment::from_element,
        )?;
        Ok(Event { id: opt_attr(e, "id"), name: opt_attr(e, "name"), trigger, delay, assignments })
    }

    /// Write to `<event>`.
    pub fn to_element(&self) -> Element<'_> {
        let mut e = Element::new("event");
        set_opt(&mut e, "id", &self.id);
        set_opt(&mut e, "name", &self.name);
        e.push_child(Element::new("trigger").with_child(sbml_math::to_mathml(&self.trigger)));
        if let Some(delay) = &self.delay {
            e.push_child(Element::new("delay").with_child(sbml_math::to_mathml(delay)));
        }
        if !self.assignments.is_empty() {
            let mut list = Element::new("listOfEventAssignments");
            for a in &self.assignments {
                list.push_child(a.to_element());
            }
            e.push_child(list);
        }
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbml_math::infix;

    #[test]
    fn event_round_trip() {
        let ev = Event {
            id: Some("e1".into()),
            name: Some("spike".into()),
            trigger: infix::parse("time >= 10").unwrap(),
            delay: Some(infix::parse("2").unwrap()),
            assignments: vec![EventAssignment {
                variable: "A".into(),
                math: infix::parse("A + 100").unwrap(),
            }],
        };
        let back = Event::from_element(&ev.to_element()).unwrap();
        assert_eq!(back, ev);
    }

    #[test]
    fn minimal_event() {
        let ev = Event::new(infix::parse("x > 1").unwrap());
        let back = Event::from_element(&ev.to_element()).unwrap();
        assert_eq!(back, ev);
        assert!(back.id.is_none());
        assert!(back.delay.is_none());
        assert!(back.assignments.is_empty());
    }

    #[test]
    fn trigger_required() {
        let e = sbml_xml::parse_element("<event id=\"e\"/>").unwrap();
        assert!(Event::from_element(&e).is_err());
    }
}
