package sim

// WheelSize exports the timing wheel's horizon to the external tests.
const WheelSize = wheelSize
