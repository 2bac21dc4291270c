package experiments

import "context"

// Figures is the figure registry cmd/experiments dispatches on: every
// runnable figure of the paper's evaluation, by its table name.
var Figures = map[string]func(context.Context, Config) ([]Row, error){
	"fig4":     Fig4,
	"fig5":     Fig5,
	"fig7":     Fig7,
	"fig8":     Fig8,
	"fig9":     Fig9,
	"fig10":    Fig10,
	"ablation": Ablation,
	"recovery": Recovery,
	"multi":    MultiOutage,
	"all":      All,
}
