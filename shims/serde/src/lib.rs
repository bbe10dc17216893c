//! Offline shim for the `serde` crate.
//!
//! Serialization here is concrete rather than visitor-based: a type
//! serializes by converting itself into the small JSON [`value::Value`]
//! model, which `serde_json` (the sibling shim) renders and parses. The
//! `derive` feature is accepted for manifest compatibility but provides no
//! macro — types implement [`Serialize`] by hand via [`value::Map`].

pub mod value;

/// Conversion into the JSON value model.
pub trait Serialize {
    /// This value as a JSON tree.
    fn to_json_value(&self) -> value::Value;
}

impl Serialize for value::Value {
    fn to_json_value(&self) -> value::Value {
        self.clone()
    }
}

impl Serialize for bool {
    fn to_json_value(&self) -> value::Value {
        value::Value::Bool(*self)
    }
}

macro_rules! impl_serialize_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> value::Value {
                value::Value::Number(value::Number::from_u64(*self as u64))
            }
        }
    )*};
}
impl_serialize_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serialize_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> value::Value {
                value::Value::Number(value::Number::from_i64(*self as i64))
            }
        }
    )*};
}
impl_serialize_int!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_json_value(&self) -> value::Value {
        value::Value::Number(value::Number::from_f64(*self))
    }
}

impl Serialize for f32 {
    fn to_json_value(&self) -> value::Value {
        value::Value::Number(value::Number::from_f64(*self as f64))
    }
}

impl Serialize for str {
    fn to_json_value(&self) -> value::Value {
        value::Value::String(self.to_string())
    }
}

impl Serialize for String {
    fn to_json_value(&self) -> value::Value {
        value::Value::String(self.clone())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json_value(&self) -> value::Value {
        (**self).to_json_value()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json_value(&self) -> value::Value {
        value::Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json_value(&self) -> value::Value {
        self.as_slice().to_json_value()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json_value(&self) -> value::Value {
        match self {
            None => value::Value::Null,
            Some(v) => v.to_json_value(),
        }
    }
}

impl<V: Serialize> Serialize for std::collections::BTreeMap<String, V> {
    fn to_json_value(&self) -> value::Value {
        let mut map = value::Map::new();
        for (k, v) in self {
            map.insert(k.clone(), v.to_json_value());
        }
        value::Value::Object(map)
    }
}

#[cfg(test)]
mod tests {
    use super::value::Value;
    use super::Serialize;

    #[test]
    fn primitives_round_into_values() {
        assert_eq!(true.to_json_value(), Value::Bool(true));
        assert_eq!(3u64.to_json_value().as_u64(), Some(3));
        assert_eq!((-2i64).to_json_value().as_i64(), Some(-2));
        assert_eq!("hi".to_json_value().as_str(), Some("hi"));
        assert_eq!(Option::<u32>::None.to_json_value(), Value::Null);
    }

    #[test]
    fn collections_nest() {
        let v = vec![1u32, 2, 3].to_json_value();
        let arr = v.as_array().unwrap();
        assert_eq!(arr.len(), 3);
        assert_eq!(arr[2].as_u64(), Some(3));
    }

    #[test]
    fn signed_and_float_primitives_serialize_as_numbers() {
        use super::value::Number;
        assert_eq!((-3i8).to_json_value(), Value::Number(Number::NegInt(-3)));
        assert_eq!(4isize.to_json_value(), Value::Number(Number::PosInt(4)));
        assert_eq!(
            i64::MIN.to_json_value(),
            Value::Number(Number::NegInt(i64::MIN))
        );
        assert_eq!(
            u16::MAX.to_json_value(),
            Value::Number(Number::PosInt(65535))
        );
        assert_eq!(0.5f32.to_json_value(), Value::Number(Number::Float(0.5)));
        assert_eq!(
            (-2.25f64).to_json_value(),
            Value::Number(Number::Float(-2.25))
        );
    }

    #[test]
    fn btree_maps_serialize_as_objects_in_key_order() {
        let map: std::collections::BTreeMap<String, Option<u8>> =
            [("b".to_string(), Some(1)), ("a".to_string(), None)].into();
        let value = map.to_json_value();
        let entries: Vec<(&str, &Value)> = value
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.as_str(), v))
            .collect();
        assert_eq!(entries, [("a", &Value::Null), ("b", &Value::from(1u64))]);
    }

    #[test]
    fn references_slices_and_values_serialize_like_their_targets() {
        let items = [String::from("x"), String::from("y")];
        let slice: &[String] = &items;
        assert_eq!(slice.to_json_value(), items.to_vec().to_json_value());
        assert_eq!((&&7u8).to_json_value(), 7u8.to_json_value());
        let nested = vec![vec![1u8], vec![]];
        let value = nested.to_json_value();
        assert_eq!(value.to_json_value(), value);
        assert_eq!(value.as_array().unwrap()[1], Value::Array(Vec::new()));
    }
}
