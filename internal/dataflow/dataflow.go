// Package dataflow implements the AVS-style execution framework of the
// prototype NPSS simulation executive: modules with typed input and
// output ports and parameter widgets, composed into a dataflow network
// by a Network Editor, with module lifecycle functions (spec, compute,
// destroy) matching the AVS module model the paper adapts.
//
// A module declares its ports and widgets in Spec (AVS's spec
// function), is executed by the scheduler through Compute each time it
// is scheduled (AVS's compute function), and is told when it is
// removed from a network through Destroy (AVS's destroy function) — in
// the executive, Destroy is where a module calls sch_i_quit so the
// Manager shuts down its line's remote computations.
package dataflow

import (
	"fmt"
	"strconv"
)

// Module is the user-written part of an AVS-style module.
type Module interface {
	// Spec declares the module's ports and widgets.
	Spec(s *Spec)
	// Compute runs the module: read inputs and widgets from the
	// context, write outputs.
	Compute(c *Context) error
	// Destroy is called when the module is removed from a network or
	// the network is cleared.
	Destroy()
}

// WidgetKind enumerates the AVS control-panel widget types.
type WidgetKind int

const (
	// Dial is a rotary knob for a bounded float parameter.
	Dial WidgetKind = iota
	// Slider is a linear control for a bounded float parameter.
	Slider
	// TypeIn is a free-text entry box.
	TypeIn
	// Radio is a one-of-n selection (radio buttons).
	Radio
	// Browser is a file browser returning a pathname.
	Browser
	// Choice is a drop-down selection.
	Choice
)

// String names the widget kind.
func (k WidgetKind) String() string {
	switch k {
	case Dial:
		return "dial"
	case Slider:
		return "slider"
	case TypeIn:
		return "typein"
	case Radio:
		return "radio"
	case Browser:
		return "browser"
	case Choice:
		return "choice"
	}
	return fmt.Sprintf("WidgetKind(%d)", int(k))
}

// Widget is one control-panel parameter.
type Widget struct {
	Name     string
	Kind     WidgetKind
	Min, Max float64  // Dial and Slider bounds
	Options  []string // Radio and Choice alternatives
	// value holds a float64 (Dial, Slider) or string (others).
	value any
}

// Float reads a numeric widget.
func (w *Widget) Float() (float64, error) {
	if v, ok := w.value.(float64); ok {
		return v, nil
	}
	return 0, fmt.Errorf("dataflow: widget %q holds %T, not a number", w.Name, w.value)
}

// String reads a textual widget.
func (w *Widget) Text() (string, error) {
	if v, ok := w.value.(string); ok {
		return v, nil
	}
	return "", fmt.Errorf("dataflow: widget %q holds %T, not text", w.Name, w.value)
}

// set validates and stores a widget value.
func (w *Widget) set(v any) error {
	switch w.Kind {
	case Dial, Slider:
		f, ok := toFloat(v)
		if !ok {
			return fmt.Errorf("dataflow: widget %q needs a number, got %T", w.Name, v)
		}
		if w.Min != w.Max && (f < w.Min || f > w.Max) {
			return fmt.Errorf("dataflow: widget %q value %g outside [%g, %g]", w.Name, f, w.Min, w.Max)
		}
		w.value = f
	case Radio, Choice:
		s, ok := v.(string)
		if !ok {
			return fmt.Errorf("dataflow: widget %q needs an option string, got %T", w.Name, v)
		}
		for _, o := range w.Options {
			if o == s {
				w.value = s
				return nil
			}
		}
		return fmt.Errorf("dataflow: widget %q has no option %q (have %v)", w.Name, s, w.Options)
	case TypeIn, Browser:
		s, ok := v.(string)
		if !ok {
			return fmt.Errorf("dataflow: widget %q needs text, got %T", w.Name, v)
		}
		w.value = s
	default:
		return fmt.Errorf("dataflow: widget %q has unknown kind", w.Name)
	}
	return nil
}

func toFloat(v any) (float64, bool) {
	switch x := v.(type) {
	case float64:
		return x, true
	case int:
		return float64(x), true
	case string:
		f, err := strconv.ParseFloat(x, 64)
		return f, err == nil
	}
	return 0, false
}

// Port is a typed input or output connection point.
type Port struct {
	Name string
	// Type is a free-form type tag; connections require equal tags.
	Type string
}

// Spec collects a module's declarations.
type Spec struct {
	name    string
	inputs  []Port
	outputs []Port
	widgets []*Widget
}

// SetName names the module type (not the instance).
func (s *Spec) SetName(name string) { s.name = name }

// InPort declares an input port.
func (s *Spec) InPort(name, typ string) { s.inputs = append(s.inputs, Port{name, typ}) }

// OutPort declares an output port.
func (s *Spec) OutPort(name, typ string) { s.outputs = append(s.outputs, Port{name, typ}) }

// AddDial declares a dial widget with bounds and a default.
func (s *Spec) AddDial(name string, min, max, def float64) {
	s.widgets = append(s.widgets, &Widget{Name: name, Kind: Dial, Min: min, Max: max, value: def})
}

// AddSlider declares a slider widget.
func (s *Spec) AddSlider(name string, min, max, def float64) {
	s.widgets = append(s.widgets, &Widget{Name: name, Kind: Slider, Min: min, Max: max, value: def})
}

// AddTypeIn declares a text-entry widget, the widget the adapted
// modules use for the remote executable pathname.
func (s *Spec) AddTypeIn(name, def string) {
	s.widgets = append(s.widgets, &Widget{Name: name, Kind: TypeIn, value: def})
}

// AddRadio declares a radio-button widget, the widget the adapted
// modules use to select the remote machine. The first option is the
// default.
func (s *Spec) AddRadio(name string, options ...string) {
	def := ""
	if len(options) > 0 {
		def = options[0]
	}
	s.widgets = append(s.widgets, &Widget{Name: name, Kind: Radio, Options: options, value: def})
}

// AddBrowser declares a file-browser widget (performance map files).
func (s *Spec) AddBrowser(name, def string) {
	s.widgets = append(s.widgets, &Widget{Name: name, Kind: Browser, value: def})
}

// AddChoice declares a drop-down widget (solver method selection).
func (s *Spec) AddChoice(name string, options ...string) {
	def := ""
	if len(options) > 0 {
		def = options[0]
	}
	s.widgets = append(s.widgets, &Widget{Name: name, Kind: Choice, Options: options, value: def})
}

// Context is what Compute sees: the module's inputs, widgets, and
// output sink.
type Context struct {
	node   *Node
	inputs map[string]any
	outs   map[string]any
}

// In reads an input port's current value; nil when unconnected.
func (c *Context) In(port string) any { return c.inputs[port] }

// Instance returns the name of the module instance being computed.
func (c *Context) Instance() string { return c.node.Name }

// Param returns a widget by name.
func (c *Context) Param(name string) (*Widget, error) {
	w := c.node.widget(name)
	if w == nil {
		return nil, fmt.Errorf("dataflow: module %q has no widget %q", c.node.Name, name)
	}
	return w, nil
}

// FloatParam reads a numeric widget directly.
func (c *Context) FloatParam(name string) (float64, error) {
	w, err := c.Param(name)
	if err != nil {
		return 0, err
	}
	return w.Float()
}

// TextParam reads a textual widget directly.
func (c *Context) TextParam(name string) (string, error) {
	w, err := c.Param(name)
	if err != nil {
		return "", err
	}
	return w.Text()
}

// Out writes an output port.
func (c *Context) Out(port string, v any) error {
	for _, p := range c.node.spec.outputs {
		if p.Name == port {
			c.outs[port] = v
			return nil
		}
	}
	return fmt.Errorf("dataflow: module %q has no output port %q", c.node.Name, port)
}
