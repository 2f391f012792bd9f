square:
    mul a0, a0, a0
    ret
